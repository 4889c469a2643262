#!/usr/bin/env python3
"""The repository's benchmark: end-to-end and per-layer, five workloads.

Two ways to run it, both from the repository root:

``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1``
    One workload in this process.  ``--trace 0`` measures the end-to-end
    metrics with the code exactly as shipped; ``--trace 1`` runs one
    plain and one traced repetition and reports the per-layer metrics.
    The last line of standard output is one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics`` (the contract
    in ``BENCHMARK.json``); the line before it carries the detail the
    suite below collects.  Exit status 1 when an output check failed.

``python3 bench/run.py [--seed S] [--repeats N] [--out FILE]``
    The suite: every workload, ``N`` untraced runs on seeds ``S..S+N-1``
    plus one traced run on seed ``S``, each in its own fresh child
    process, one at a time.  Prints every metric by name with its unit
    and writes the result file ``bench/agree.py`` compares.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
BASELINE_PATH = BENCH / "baseline.json"

#: set-up is measured at least this often per run and, while it is cheap,
#: up to MAX_SETUPS times within SETUP_TOPUP_S: a 2 ms live set-up needs
#: many samples for a steady median, a 0.3 s torus build only a few
MIN_SETUPS = 5
MAX_SETUPS = 40
SETUP_TOPUP_S = 1.0
CHILD_TIMEOUT_S = 180

#: per-layer time metric -> the span names whose self time it sums; every
#: span name bench/trace.py records appears exactly once, so these
#: metrics partition the traced wall time
SELF_TIME = {
    "sim.self_s": ("sim.run",),
    "network.flood_s": ("network.flood",),
    "network.unicast_s": ("network.unicast",),
    "network.routing_s": ("network.routing",),
    "protocols.handler_s": ("protocols.handler",),
    "protocols.candidates_s": ("protocols.candidates",),
    "protocols.notify_s": ("protocols.notify",),
    "migration.place_s": ("migration.place",),
    "migration.negotiate_s": ("migration.negotiate",),
    "migration.admit_handler_s": ("migration.admit_handler",),
    "node.try_accept_s": ("node.try_accept",),
    "workload.emit_s": ("workload.emit",),
    "metrics.on_cost_s": ("metrics.on_cost",),
    "experiments.build_s": ("experiments.build",),
    "experiments.result_s": ("experiments.result",),
    "experiments.executor_overhead_s": (
        "experiments.execute", "experiments.run_cell",
        "experiments.store_put", "experiments.store_get",
    ),
    "live.self_s": ("live.sched_run",),
    "live.transport_s": ("live.transport",),
    "live.start_s": ("live.start",),
    "live.teardown_s": ("live.run", "live.teardown"),
}
CALLS = {
    "network.flood_calls": "network.flood",
    "network.unicast_calls": "network.unicast",
    "network.routing_calls": "network.routing",
    "protocols.handler_calls": "protocols.handler",
    "protocols.candidates_calls": "protocols.candidates",
    "migration.place_calls": "migration.place",
    "node.try_accept_calls": "node.try_accept",
    "metrics.on_cost_calls": "metrics.on_cost",
}


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
    }


# One workload, in this process ------------------------------------------


def envelope(reps: list, clock: int) -> float:
    """Seconds of one repetition with every slice at its fastest.

    Repetitions of a workload and seed do the same work slice by slice,
    so ``sum over slices of min over repetitions`` is the run a quiet
    machine would have timed; ``clock`` 0 is wall, 1 is process CPU.
    """
    return sum(min(lap[clock] for lap in laps) for laps in zip(*(r.laps for r in reps)))


def timed_setup(workload, seed: int) -> Tuple[object, float]:
    """One set-up: the built state and its seconds at reference speed."""
    from workloads import calibrate, normalised

    before = calibrate()[0]
    state, seconds = workload.setup(seed)
    return state, normalised(seconds, before, calibrate()[0])


def measure(workload, seed: int, seconds: float) -> Tuple[List[float], list]:
    """Untraced pass: repeat set-up + run until ``seconds`` are measured
    (and, where the workload repeats, at least twice)."""
    setups: List[float] = []
    reps = []
    measured = 0.0
    while True:
        state, setup_s = timed_setup(workload, seed)
        setups.append(setup_s)
        rep = workload.run(state, seed)
        del state
        gc.collect()
        reps.append(rep)
        measured += rep.wall_s
        if rep.failed or rep.errors or not workload.repeatable:
            break
        if len(reps) >= 2 and measured >= seconds:
            break
    stop = perf_counter() + SETUP_TOPUP_S
    while len(setups) < MIN_SETUPS or (
        len(setups) < MAX_SETUPS and perf_counter() < stop
    ):
        setups.append(timed_setup(workload, seed)[1])
        gc.collect()
    return setups, reps


def _verdict(reps: list) -> Tuple[bool, int, int, List[str]]:
    errors = [e for rep in reps for e in rep.errors]
    if len({rep.fingerprint for rep in reps}) > 1:
        errors.append("simulated statistics differ between repetitions")
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    return not errors and not failed, attempted, failed, errors


def run_end_to_end(workload, seed: int, seconds: float) -> Tuple[dict, dict]:
    from workloads import peak_rss_mb

    setups, reps = measure(workload, seed, seconds)
    correct, attempted, failed, errors = _verdict(reps)
    values = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb()}
    if correct:
        tasks = reps[0].tasks
        values["task_wall_us"] = envelope(reps, 0) / tasks * 1e6
        values["task_cpu_us"] = envelope(reps, 1) / tasks * 1e6
    detail = {
        "reps": len(reps),
        "rep_wall_s": [rep.wall_s for rep in reps],
        "setup_samples": setups,
        # same seed, same counts in every repetition: the first one's do
        "layer": {k: v for k, v in reps[0].layer.items() if not k.startswith("_")},
        "fingerprint": reps[0].fingerprint,
        "errors": errors,
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "values": values}, detail


def layer_metrics(plain, traced, rec) -> Dict[str, float]:
    """Every per-layer number: counts from the plain repetition, times
    from the spans ``rec`` holds of the traced one."""
    stats = rec.summary(traced.window)
    stats.pop("bench.calibrate", None)  # between slices, outside wall_s

    def self_s(*names: str) -> float:
        return sum(stats[n].self_s for n in names if n in stats)

    def calls(name: str) -> int:
        return stats[name].calls if name in stats else 0

    def mean_s(name: str) -> float:
        return stats[name].total_s / stats[name].calls if name in stats else 0.0

    out = {k: v for k, v in plain.layer.items() if not k.startswith("_")}
    for metric, names in SELF_TIME.items():
        out[metric] = self_s(*names)
    unmapped = set(stats) - {n for names in SELF_TIME.values() for n in names}
    if unmapped:
        raise RuntimeError(f"span names without a metric: {sorted(unmapped)}")
    for metric, name in CALLS.items():
        out[metric] = calls(name)
    out["trace.accounted_share"] = sum(out[m] for m in SELF_TIME) / traced.wall_s
    out["trace.spans"] = len(rec)
    plain_s = envelope([plain], 0)
    out["trace_overhead_share"] = (envelope([traced], 0) - plain_s) / plain_s
    out["experiments.store_put_ms"] = mean_s("experiments.store_put") * 1e3
    out["experiments.store_get_us"] = mean_s("experiments.store_get") * 1e6
    # every scheduler.run() after the first is a drain slice
    out["live.drain_s"] = float(rec.durations("live.sched_run", traced.window)[1:].sum())
    events = rec.counts.get("sim.events", 0)
    if events:
        out["sim.events"] = events
        out["sim.events_per_s"] = events / plain_s
        out["sim.cohort_batched_share"] = plain.layer["_batched_events"] / events
    if calls("node.try_accept"):
        out["node.accept_ratio"] = plain.layer["_accepted"] / calls("node.try_accept")
    return out


def run_per_layer(workload, seed: int) -> Tuple[dict, dict]:
    from trace import Recorder, installed
    from workloads import OUT

    state, _ = workload.setup(seed)
    plain = workload.run(state, seed)
    del state
    gc.collect()
    rec = Recorder(f"{workload.name}-seed{seed}")
    with installed(rec):
        state, _ = workload.setup(seed)
        traced = workload.run(state, seed)
        del state
    correct, attempted, failed, errors = _verdict([plain, traced])
    values = layer_metrics(plain, traced, rec) if correct else {}
    OUT.mkdir(exist_ok=True)
    rec.save(OUT / f"{workload.name}.spans.npz")
    detail = {"fingerprint": plain.fingerprint, "errors": errors}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "values": values}, detail


def run_one(args: argparse.Namespace, spec: dict) -> int:
    from workloads import make_workloads

    workloads = make_workloads(args.seconds)
    if args.workload not in workloads:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {sorted(workloads)}")
    workload = workloads[args.workload]
    if args.trace:
        result, detail = run_per_layer(workload, args.seed)
        wanted = spec["per_layer"]
    else:
        result, detail = run_end_to_end(workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    values = result.pop("values")
    # a per-layer metric whose layer this workload never enters reads 0
    result["metrics"] = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=int(bool(args.trace)))
    for error in detail["errors"]:
        print(f"CHECK FAILED [{args.workload}]: {error}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# The suite: every workload, one fresh child process per run ---------------


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run_one`` in a fresh interpreter; its two JSON lines merged."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {proc.returncode})")
    run = json.loads(lines[-1])
    run.update(json.loads(lines[-2])["detail"])
    return run


def _row(name: str, unit: str, values: List[float]) -> str:
    mid = statistics.median(values)
    text = f"    {name:<34} {mid:>14.6g} {unit:<6}"
    if len(values) > 1:
        text += f" [{min(values):.6g} .. {max(values):.6g}]"
    return text


def run_suite(args: argparse.Namespace, spec: dict) -> int:
    baseline = json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    runs: List[dict] = []
    ok = True
    for w in spec["workloads"]:
        if w["name"] not in names:
            continue
        print(f"== {w['name']} — {w['why']}")
        plain = []
        if args.trace in (None, 0):
            plain = [
                run_child(w["name"], args.seed + r, args.seconds, 0)
                for r in range(args.repeats)
            ]
            print(f"  end-to-end, median of {len(plain)} runs "
                  f"(seeds {args.seed}..{args.seed + len(plain) - 1}) [min .. max]")
            for m in spec["end_to_end"]:
                vals = [run["metrics"][m["name"]]["value"] for run in plain]
                print(_row(m["name"], m["unit"], vals))
            raw = [s for run in plain for s in run["rep_wall_s"]]
            print(_row("(stopwatch s per repetition)", "s", raw))
            failed = sum(run["failed"] for run in plain)
            attempted = sum(run["attempted"] for run in plain)
            print(f"    {'failed_share':<34} {failed / attempted:>14.6g} "
                  f"       ({failed} of {attempted})")
        traced = []
        if args.trace in (None, 1):
            traced = [run_child(w["name"], args.seed, args.seconds, 1)]
            print(f"  per-layer, seed {args.seed} (counts: plain repetition; "
                  "times: span self time of the traced one)")
            for m in spec["per_layer"]:
                print(_row(m["name"], m["unit"], [traced[0]["metrics"][m["name"]]["value"]]))
        for run in plain + traced:
            ok &= run["correct"]
        first = (plain + traced)[0]
        if first["fingerprint"]:
            known = baseline.get("fingerprints", {}).get(w["name"], {}).get(str(first["seed"]))
            note = "" if known is None else (
                " (baseline: same)" if known == first["fingerprint"]
                else " (baseline: DIFFERENT — simulated behaviour changed)"
            )
            print(f"  fingerprint seed {first['seed']}: {first['fingerprint']}{note}")
        runs += plain + traced
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {"env": environment(), "seconds": args.seconds, "runs": runs}, indent=1
    ) + "\n")
    print(f"{'all output checks passed' if ok else 'OUTPUT CHECKS FAILED'}; "
          f"results in {out}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="length of the measured region of one run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, choices=(0, 1),
                        help="0: end-to-end pass; 1: per-layer pass "
                             "(suite default: both)")
    parser.add_argument("--repeats", type=int,
                        help="suite: untraced runs per workload, on consecutive seeds")
    parser.add_argument("--out", help="suite: result file "
                                      "(default bench/out/results.json)")
    args = parser.parse_args(argv)
    suite = args.workload is None or args.repeats is not None or args.out is not None
    if not suite:
        return run_one(args, spec)
    args.repeats = args.repeats or 3
    args.out = args.out or str(BENCH / "out" / "results.json")
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
