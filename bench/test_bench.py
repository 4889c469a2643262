"""Tests of the benchmark's own machinery.

Run as ``python -m pytest bench/`` from the repository root; deliberately
outside the tier-1 ``testpaths`` so the suite's wall time is unchanged.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import agree  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402  (bench/trace.py, not the stdlib tracer)
import workloads  # noqa: E402
from repro.experiments import ExperimentConfig, build_system, runner  # noqa: E402
from repro.network.transport import Transport  # noqa: E402
from repro.node.host import Host  # noqa: E402
from repro.protocols.base import DiscoveryAgent  # noqa: E402


def _tiny(seed: int) -> ExperimentConfig:
    # overloaded 25-node mesh: local admits, migrations and rejections
    return ExperimentConfig(arrival_rate=8.0, horizon=150.0, seed=seed)


def _run_tiny(seed: int):
    system = runner.build_system(_tiny(seed))
    system.run()
    return system.result()


def test_self_time_is_duration_minus_children(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(trace, "perf_counter", lambda: float(next(ticks)))
    rec = trace.Recorder("t")
    leaf = rec.wrap(lambda: None, "leaf")
    mid = rec.wrap(lambda: (leaf(), leaf()), "mid")
    root = rec.wrap(lambda: mid(), "root")
    root()
    # clock: root 0..7, mid 1..6, leaves 2..3 and 4..5
    stats = rec.summary()
    assert stats["root"] == trace.SpanStats(1, 7.0, 2.0)
    assert stats["mid"] == trace.SpanStats(1, 5.0, 3.0)
    assert stats["leaf"] == trace.SpanStats(2, 2.0, 2.0)
    assert sum(s.self_s for s in stats.values()) == stats["root"].total_s
    assert list(rec.parent) == [-1, 0, 1, 1]
    # a window keeps spans by start time; self times are unaffected
    inner = rec.summary(window=(1.0, 6.0))
    assert set(inner) == {"mid", "leaf"} and inner["mid"].self_s == 3.0
    assert list(rec.durations("leaf")) == [1.0, 1.0]


def test_span_survives_an_exception():
    rec = trace.Recorder("t")

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap(boom, "boom")()
    assert rec.summary()["boom"].calls == 1
    assert rec._stack == [-1]


def test_wrappers_are_removed():
    watched = [
        (Transport, "flood"), (Transport, "register"), (Host, "try_accept"),
        (runner, "build_system"), (runner.System, "run"),
        (DiscoveryAgent, "candidates"),
    ]
    before = [vars(owner)[attr] for owner, attr in watched]
    with pytest.raises(RuntimeError):
        with trace.installed(trace.Recorder("t")):
            assert all(
                vars(owner)[attr] is not orig
                for (owner, attr), orig in zip(watched, before)
            )
            raise RuntimeError("leave through the error path")
    assert [vars(owner)[attr] for owner, attr in watched] == before


def test_fingerprint_is_stable_and_tracing_is_transparent():
    plain = workloads.fingerprint([_run_tiny(3)])
    assert plain == workloads.fingerprint([_run_tiny(3)])
    assert plain != workloads.fingerprint([_run_tiny(4)])
    rec = trace.Recorder("t")
    with trace.installed(rec):
        traced = workloads.fingerprint([_run_tiny(3)])
    assert traced == plain
    stats = rec.summary()
    # every span name is owned by exactly one per-layer time metric
    owners = [n for names in run.SELF_TIME.values() for n in names]
    assert len(owners) == len(set(owners))
    assert set(stats) <= set(owners)
    for name in ("sim.run", "network.flood", "network.unicast", "protocols.handler",
                 "migration.place", "migration.admit_handler", "node.try_accept",
                 "workload.emit", "metrics.on_cost", "experiments.build"):
        assert stats[name].calls > 0, name
    assert rec.counts["sim.events"] > 0


def test_peak_rss_is_not_inherited_from_a_large_parent():
    ballast = bytearray(300 << 20)
    ballast[::4096] = b"\x01" * len(ballast[::4096])  # touch every page
    assert workloads.peak_rss_mb() > 300
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
         "print(workloads.peak_rss_mb())", str(BENCH)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert float(child.stdout) < 200
    del ballast


def test_due_times_equal_the_simulators_arrival_times():
    cfg = ExperimentConfig(arrival_rate=5.0, horizon=60.0, seed=7)
    system = build_system(cfg)
    arrivals = []
    place = system.coordinator.place_task

    def record(task):
        arrivals.append(task.arrival_time)
        place(task)

    system.coordinator.place_task = record
    system.run()
    due = workloads.due_times(7, 5.0, 60.0, cfg.num_nodes)
    assert len(arrivals) > 200
    assert arrivals == list(due)


@pytest.mark.parametrize(
    "old, new, expected",
    [
        ([10, 10.1, 9.9, 10], [10.2, 10.1, 10, 10.3], "unchanged"),
        ([10, 10.1, 9.9, 10], [12, 12.1, 11.9, 12], "regressed"),
        ([10, 10.1, 9.9, 10], [9, 9.1, 8.9, 9.05], "improved"),
        ([10, 13, 8, 11], [10.5, 12, 9, 10], "unresolved"),
    ],
)
def test_agree_verdicts(old, new, expected):
    assert agree.verdict(old, new, "lower", 0.10, True) == expected


def test_agree_does_not_gate_the_spread_of_setup():
    assert agree.verdict([10, 13, 8, 11], [10.5, 12, 9, 10], "lower", 0.25, False) == "unchanged"
