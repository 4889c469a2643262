#!/usr/bin/env python
"""Inspector smoke: warm-store reports with zero simulation.

Doubles as the CI gate for the RunStore inspector (docs/observability.md):

1. run a tiny obs-enabled sweep into a fresh store (trajectories ride
   along on every ``RunResult.series``),
2. re-execute the same plan — 100% cache hits, nothing simulates,
3. poison the simulator's run loop, then render the full inspector
   surface (summary, run report, diff, timeline) and drive the
   ``python -m repro.obs`` CLI over the warm store — proving every
   report byte comes from the store shards,
4. export one run's trajectories as JSONL + CSV and round-trip them.

Run:  python examples/inspect_run.py [store-dir] [report-file]

Every step asserts; a non-zero exit means the inspector broke.
"""

import sys
import tempfile
from pathlib import Path

from repro.experiments import ExperimentConfig, RunStore
from repro.experiments.executor import execute_plan
from repro.experiments.plan import sweep_plan
from repro.obs.registry import load_series_jsonl
from repro.obs.__main__ import main as obs_cli
from repro.obs.config import ObsConfig
from repro.obs.inspect import diff_report, load_runs, run_report, timeline_report

BASE = ExperimentConfig(
    horizon=120.0,
    seed=7,
    obs=ObsConfig(),
)
RATES = [3.0, 6.0]


def main(root: Path, report: Path) -> None:
    # Step 1: cold store — both cells simulate with the registry on.
    plan = sweep_plan(["realtor"], RATES, BASE)
    store = RunStore(root)
    execute_plan(plan, store=store)
    stats = store.stats()
    print(f"cold store: {stats['writes']} runs written")
    assert stats["writes"] == len(RATES)

    # Step 2: identical plan, reopened store -> 100% cache hits.
    store2 = RunStore(root)
    execute_plan(plan, store=store2)
    stats2 = store2.stats()
    print(f"warm store: {stats2['hits']} hits, {stats2['misses']} misses")
    assert stats2["hits"] == len(RATES) and stats2["misses"] == 0

    # Step 3: poison the kernel, then render everything from the store.
    from repro.sim.kernel import Simulator

    def boom(*args, **kwargs):
        raise AssertionError("inspector simulated — it must only read")

    orig_run = Simulator.run
    Simulator.run = boom
    try:
        entries = load_runs(root)
        assert len(entries) == len(RATES)
        assert all(e.series for e in entries)

        text = run_report(entries[0])
        assert "survivability trajectory" in text
        assert "degradation by window" in text

        delta = diff_report(entries[0], entries[1])
        assert "lambda" in delta

        strips = timeline_report(entries[0], metrics=["nodes_live"])
        assert "nodes_live" in strips

        jsonl = root / "series.jsonl"
        csv_path = root / "series.csv"
        assert obs_cli(["inspect", "--store", str(root)]) == 0
        assert obs_cli(
            [
                "inspect", "--store", str(root), "--run", "#0",
                "--jsonl", str(jsonl), "--csv", str(csv_path),
                "--report", str(report),
            ]
        ) == 0
        assert obs_cli(["diff", "--store", str(root), "#0", "#1"]) == 0
        assert obs_cli(
            ["timeline", "--store", str(root), "--run", "#1"]
        ) == 0
    finally:
        Simulator.run = orig_run
    print("zero-simulation inspection: ok")

    # Step 4: the exports round-trip.
    assert "degradation by window" in report.read_text()
    loaded = load_series_jsonl(jsonl)
    want = entries[0].series["series"]["nodes_live"]
    assert loaded["series"]["nodes_live"]["t"] == list(want["t"])
    assert loaded["series"]["nodes_live"]["v"] == list(want["v"])
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "metric,t,v"
    assert any(line.startswith("nodes_live,") for line in lines[1:])
    print(f"exports: {jsonl.name} and {csv_path.name} round-trip")
    print("inspector smoke: all assertions passed")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        root = Path(sys.argv[1])
        root.mkdir(parents=True, exist_ok=True)
        report = Path(sys.argv[2]) if len(sys.argv) > 2 else root / "inspect-report.txt"
        main(root, report)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(Path(tmp), Path(tmp) / "inspect-report.txt")
