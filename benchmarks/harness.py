"""Benchmark regression harness — records the engine's perf trajectory.

Runs the engine micro-benchmarks (the same hot loops
``benchmarks/test_perf_engine.py`` times under pytest-benchmark) plus one
macro sweep (REALTOR on the 5x5 paper mesh), and writes ``BENCH_engine.json``
at the repo root.  Every PR that touches the kernel, transport, or sweep
machinery should re-run this and compare against the committed numbers.

Usage::

    PYTHONPATH=src python benchmarks/harness.py            # full run
    PYTHONPATH=src python benchmarks/harness.py --smoke    # CI smoke (~seconds)
    PYTHONPATH=src python benchmarks/harness.py -o my.json # custom output

Timing protocol: each micro-benchmark is warmed once, then timed
``--repeats`` times; the *minimum* wall time is reported (the standard
noise-robust estimator for CPU-bound loops — any run can only be slowed
down by interference, never sped up).  Throughputs are derived from the
minimum.  ``baseline`` in the JSON carries the pre-fast-path numbers so
speedups are visible without digging through git history.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.experiments.config import ExperimentConfig, paper_config
from repro.experiments.runner import build_system, run_experiment
from repro.experiments.sweep import run_sweep
from repro.network.generators import paper_topology, square_torus
from repro.network.routing import EagerRouter, Router
from repro.network.transport import Transport
from repro.node.host import Host
from repro.node.queue import WorkQueue
from repro.node.task import Task, TaskOutcome
from repro.sim.kernel import Simulator

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_engine.json"

#: Pre-fast-path timings (seed kernel, this container, 2026-08-06) — the
#: denominators for the speedup column.  Update only when the benchmark
#: *workloads* change, never to flatter a regression.
#:
#: ``queue_scaling_50k`` is a single seed run (best-of-N was impractical at
#: ~13 minutes per repetition under the O(n^2) resident-list rebuild); all
#: other entries are best-of-N minima.
BASELINE = {
    "event_throughput": {"min_seconds": 0.037671, "ops": 20_000},
    "flood_throughput": {"min_seconds": 0.102455, "ops": 500},
    "queue_admission_throughput": {"min_seconds": 9.949199, "ops": 10_000},
    "queue_scaling_1k": {"min_seconds": 0.030802, "ops": 1_000},
    "queue_scaling_50k": {"min_seconds": 780.915716, "ops": 50_000},
    "queue_steady_state": {"min_seconds": 0.293642, "ops": 20_000},
    "monitor_churn": {"min_seconds": 0.366862, "ops": 20_000},
    "routing_query_throughput": {"min_seconds": None, "ops": 625},
}


# --------------------------------------------------------------------------
# Micro-benchmarks — kept in lockstep with benchmarks/test_perf_engine.py
# --------------------------------------------------------------------------

def bench_event_throughput(n: int = 20_000) -> int:
    """Schedule+fire cycles through the kernel."""
    sim = Simulator()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < n:
            sim.after(0.001, tick)

    sim.after(0.001, tick)
    sim.run()
    return count[0]


def bench_flood_throughput(n: int = 500) -> int:
    """Floods over the 25-node paper mesh (cached flood structure)."""
    sim = Simulator()
    transport = Transport(sim, paper_topology())
    for node in range(25):
        transport.register(node, "adv", lambda d: None)
    for i in range(n):
        transport.flood(i % 25, "adv", None)
    sim.run()
    return transport.delivered_messages


def bench_queue_admission_throughput(n: int = 10_000) -> int:
    """Pure-lifecycle micro: admissions + completions through one queue.

    The effectively unbounded capacity keeps every task resident until the
    run phase, so this stresses the admit/complete lifecycle itself (the
    seed rebuilt the resident list per completion — O(n^2) overall).  Run
    at n ∈ {1k, 10k, 50k} it traces the scaling curve.
    """
    sim = Simulator()
    q = WorkQueue(sim, capacity=1e12)
    for _ in range(n):
        t = Task(size=0.5, arrival_time=0.0, origin=0)
        t.mark_admitted(0, 0.0, TaskOutcome.LOCAL)
        q.try_admit(t)
    # completions are retired when the queue is read: run the clock past
    # the last one (every task is 0.5 s of work, admitted at t=0)
    sim.run(until=0.5 * n)
    return q.completed_count


def bench_queue_steady_state(n: int = 20_000) -> int:
    """Steady-state variant: admissions interleaved with completions.

    Arrivals every 0.4 sim-seconds against capacity 100.0, so the resident
    set stays small and completions drain between admissions — the shape a
    long experiment run actually exercises.
    """
    sim = Simulator()
    q = WorkQueue(sim, capacity=100.0)
    count = [0]

    def arrive() -> None:
        if q.fits(0.5):
            t = Task(size=0.5, arrival_time=sim.now, origin=0)
            t.mark_admitted(0, sim.now, TaskOutcome.LOCAL)
            q.try_admit(t)
        count[0] += 1
        if count[0] < n:
            sim.after(0.4, arrive)

    arrive()
    # past the last arrival by a full queue, so every admitted task is due
    sim.run(until=0.4 * n + q.capacity)
    return q.completed_count


def bench_monitor_churn(n: int = 20_000) -> int:
    """Host admissions under threshold monitoring.

    Every accept notifies the ThresholdMonitor; the seed cancelled and
    rescheduled the analytic decay-crossing event on each notification,
    the fast path keeps the pending event while the crossing only moves
    later.
    """
    sim = Simulator()
    host = Host(sim, 0, capacity=100.0, threshold=0.9)
    count = [0]

    def arrive() -> None:
        t = Task(size=0.5, arrival_time=sim.now, origin=0)
        host.try_accept(t, TaskOutcome.LOCAL)
        count[0] += 1
        if count[0] < n:
            sim.after(0.45, arrive)

    arrive()
    sim.run()
    return count[0]


def bench_routing_query_throughput() -> int:
    """All-pairs distance lookups on a warmed router."""
    router = Router(paper_topology())
    router.mean_shortest_path()
    total = 0
    for u in range(25):
        for v in range(25):
            total += router.distance(u, v)
    return total


# --------------------------------------------------------------------------
# Topology scaling curve — nodes ∈ {25, 250, 2500, 10000}
# --------------------------------------------------------------------------

#: the scaling tiers; smoke mode stops at 250
SCALING_NODES = (25, 250, 2500, 10_000)
#: eager all-pairs baseline is only measured up to here (it is the
#: O(V·(V+E)) precompute the lazy router exists to avoid — ~90 s at 10k)
EAGER_BASELINE_MAX_NODES = 2500
#: routing workload per tier: distance queries fanning *out* from a
#: spread of 8 sources.  Protocol traffic mostly fans in (replies to the
#: HELP origin), which ``Router.distance`` serves with one row per hub;
#: this stream is the other direction and costs it two rows per source
SCALING_QUERIES = 64

#: the macro sweep cells run at these tiers in full mode (smoke runs one
#: at its top tier); both must stay fast — they are the acceptance cells
MACRO_CELL_NODES = (2500, 10_000)

#: sim horizon of the per-tier single-run throughput cell; short enough
#: that even the 10k tier is sub-second post-fast-path
SINGLE_RUN_HORIZON = 4.0

#: Pre-cohort-batching macro-cell wall times (seconds) for the speedup
#: column: the 10k entry is the committed PR-6 ``BENCH_engine.json``
#: value, the 2500 entry was measured on the same container against the
#: PR-6 tree with the identical cell config.  Same update rule as
#: ``BASELINE``: only when the cell *workload* changes.
SCALING_CELL_BASELINE = {2500: 4.030, 10_000: 60.6574}

#: The hot macro cells on the tree before demand-driven routing (PR 11,
#: this container, identical cell config): every unicast asked the lazy
#: router for a hop count nothing consumed.  Recorded as each hot cell's
#: ``before``; same update rule as ``BASELINE``.
HOT_CELL_BEFORE = {
    2500: {
        "seconds": 2.6691, "events_per_second": 9109.3,
        "rows_computed": 1762, "messages_total": 4481128.0,
    },
    10_000: {
        "seconds": 27.0267, "events_per_second": 3615.8,
        "rows_computed": 6950, "messages_total": 72505688.0,
    },
}


def _scaling_query_pairs(n: int) -> list:
    """Deterministic (src, dst) pairs spread across the torus."""
    step = max(1, n // 8)
    sources = [(i * step) % n for i in range(8)]
    return [
        (src, (src + 1 + (j * 7919) % (n - 1)) % n)
        for src in sources
        for j in range(SCALING_QUERIES // 8)
    ]


def bench_routing_setup_lazy(topo, pairs) -> int:
    """Fresh lazy Router + the tier's query workload (setup-on-demand)."""
    router = Router(topo)
    total = 0
    for src, dst in pairs:
        total += router.distance(src, dst)
    return total


def bench_routing_setup_eager(topo, pairs) -> int:
    """Fresh eager all-pairs Router + the identical workload."""
    router = EagerRouter(topo)
    total = 0
    for src, dst in pairs:
        total += router.distance(src, dst)
    return total


def bench_flood_scaling(topo, floods: int = 20) -> int:
    """Fresh transport + ``floods`` whole-overlay floods, fully delivered.

    Builds the epoch structure once, then fans out from distinct sources
    — the shape a liveness epoch of a big run takes.
    """
    sim = Simulator()
    transport = Transport(sim, topo)
    n = topo.num_nodes
    handler = lambda d: None  # noqa: E731
    for node in range(n):
        transport.register(node, "adv", handler)
    step = max(1, n // floods)
    for i in range(floods):
        transport.flood((i * step) % n, "adv", None)
    sim.run()
    return transport.delivered_messages


def _scaling_cell_config(
    nodes: int, horizon: float, obs: Optional[object] = None, *, hot: bool = False
) -> ExperimentConfig:
    """The tier's REALTOR cell on the square torus.

    Idle (default): offered load 0.5 against 100 s queues — every task
    admits locally and no discovery message is sent, so the cell times
    the kernel, the arrival pump and local admission.  ``hot``: load 0.95
    against 20 s queues — thresholds are crossed, HELP/PLEDGE rounds and
    ADMIT unicasts run, so the cell times the transport and protocols.

    ``obs`` (an :class:`~repro.obs.config.ObsConfig`) installs the
    metrics registry + flight recorder — the obs-overhead gate's
    enabled side; ``None`` keeps the byte-identical plain path.
    """
    return ExperimentConfig(
        topology="torus",
        nodes=nodes,
        arrival_rate=(0.95 if hot else 0.5) * nodes / 5.0,  # task_mean 5
        queue_capacity=20.0 if hot else 100.0,
        horizon=horizon,
        seed=1,
        obs=obs,
    )


def bench_scaling_cell(
    nodes: int, horizon: float = 20.0, *, hot: bool = False
) -> Dict[str, float]:
    """One REALTOR sweep cell at the given tier, run-phase kernel throughput.

    Setup (topology + hosts + protocol wiring) is excluded from the
    timing: the wall-clock and events/sec numbers measure the event loop
    itself, which is what the cohort-batching fast path targets.
    ``rows_computed`` counts BFS rows over both routers (full overlay +
    live overlay): 0 unless something consumed a hop count.
    ``live_overlay_built`` is 1 when something read a route and the
    transport copied the live overlay (which a live router is built
    over) — read off the last epoch, so the reading builds nothing.
    """
    system = build_system(_scaling_cell_config(nodes, horizon, hot=hot))
    t0 = time.perf_counter()
    system.run()
    elapsed = time.perf_counter() - t0
    result = system.result()
    events = system.sim.events_executed
    transport = system.transport
    epoch = transport._epoch
    live_router = epoch.router if epoch is not None else None
    return {
        "nodes": float(nodes),
        "horizon": horizon,
        "seconds": elapsed,
        "sim_rate": horizon / elapsed,
        "events_executed": float(events),
        "events_per_second": events / elapsed,
        "generated": float(result.generated),
        "admission_probability": result.admission_probability,
        "messages_total": result.messages_total,
        "rows_computed": float(
            transport.router.rows_computed
            + (live_router.rows_computed if live_router is not None else 0)
        ),
        "live_overlay_built": float(epoch is not None and epoch.live is not None),
    }


def bench_tier_single_run(nodes: int, horizon: float = SINGLE_RUN_HORIZON) -> Dict[str, float]:
    """Short single run at the tier — the per-tier events/sec column."""
    return bench_scaling_cell(nodes, horizon=horizon)


def run_scaling_curve(*, smoke: bool, repeats: int) -> Dict[str, dict]:
    """The nodes ∈ {25, 250, 2500, 10000} curve (smoke: {25, 250}).

    Per tier: lazy-router setup+queries (best of ``repeats``), the eager
    all-pairs baseline (1 repeat — it is seconds, not milliseconds, at
    2500 nodes), the epoch-flood fan-out, and a short single run whose
    run-phase events/sec is the tier's kernel-throughput column.  Macro
    sweep cells then run at every ``MACRO_CELL_NODES`` tier (smoke: one
    at its top tier) to prove the tiers complete end to end, idle and
    hot (see :func:`_scaling_cell_config`); the idle speedup column
    compares against the pre-cohort-batching wall times, the hot one
    against the tree before demand-driven routing.
    """
    tiers = [n for n in SCALING_NODES if not smoke or n <= 250]
    curve: Dict[str, dict] = {}
    for n in tiers:
        topo = square_torus(n)
        pairs = _scaling_query_pairs(n)
        lazy = _time_best_of(lambda: bench_routing_setup_lazy(topo, pairs), repeats)
        entry: dict = {
            "nodes": n,
            "routing_lazy_min_seconds": round(lazy, 6),
            "routing_queries": len(pairs),
        }
        if n <= EAGER_BASELINE_MAX_NODES:
            t0 = time.perf_counter()
            bench_routing_setup_eager(topo, pairs)
            eager = time.perf_counter() - t0
            entry["routing_eager_min_seconds"] = round(eager, 6)
            entry["routing_speedup_lazy_vs_eager"] = round(eager / lazy, 1)
        floods = 20 if n >= 250 else 100
        flood_best = _time_best_of(
            lambda: bench_flood_scaling(topo, floods), 1 if n >= 2500 else repeats
        )
        entry["flood_min_seconds"] = round(flood_best, 6)
        entry["floods"] = floods
        # counted, not computed: floods * (n - 1) on the connected torus,
        # and CI's smoke step holds it to that, so a fan-out that drops
        # or duplicates a receiver fails there
        entry["flood_deliveries"] = bench_flood_scaling(topo, floods)

        # per-tier single-run kernel throughput (best run-phase events/sec;
        # a fresh system per repetition so no state is warm between runs)
        reps = repeats if n <= 250 else 1
        single = bench_tier_single_run(n)
        for _ in range(reps - 1):
            again = bench_tier_single_run(n)
            if again["events_per_second"] > single["events_per_second"]:
                single = again
        entry["single_run_horizon"] = SINGLE_RUN_HORIZON
        entry["single_run_seconds"] = round(single["seconds"], 6)
        entry["single_run_events"] = int(single["events_executed"])
        entry["single_run_events_per_second"] = round(
            single["events_per_second"], 1
        )
        curve[str(n)] = entry
        speedup = entry.get("routing_speedup_lazy_vs_eager")
        print(
            f"  scaling n={n:>6}: routing {lazy*1e3:9.2f} ms"
            + (f" ({speedup}x vs eager all-pairs)" if speedup else "")
            + f", {floods} floods {flood_best*1e3:9.2f} ms"
            + f", {entry['single_run_events_per_second']:,.0f} events/s"
        )

    cell_tiers = [max(tiers)] if smoke else [
        n for n in MACRO_CELL_NODES if n in tiers
    ]
    macro_cells: Dict[str, dict] = {}
    macro_cells_hot: Dict[str, dict] = {}
    for cell_tier in cell_tiers:
        for hot, cells in ((False, macro_cells), (True, macro_cells_hot)):
            cell = bench_scaling_cell(
                cell_tier, horizon=5.0 if smoke else 20.0, hot=hot
            )
            rounded = {k: round(v, 4) for k, v in cell.items()}
            note = ""
            if not smoke and hot and cell_tier in HOT_CELL_BEFORE:
                before = HOT_CELL_BEFORE[cell_tier]
                rounded["before"] = before
                speedup = round(before["seconds"] / cell["seconds"], 1)
                rounded["speedup_vs_before"] = speedup
                note = f"  ({speedup}x vs routing every unicast)"
            elif not smoke and not hot and cell_tier in SCALING_CELL_BASELINE:
                baseline = SCALING_CELL_BASELINE[cell_tier]
                rounded["baseline_seconds"] = baseline
                speedup = round(baseline / cell["seconds"], 1)
                rounded["speedup_vs_baseline"] = speedup
                note = f"  ({speedup}x vs pre-batching)"
            cells[str(cell_tier)] = rounded
            print(
                f"  scaling_cell n={cell_tier} {'hot ' if hot else 'idle'}: "
                f"{cell['seconds']:.2f} s wall "
                f"({cell['events_per_second']:,.0f} events/s, "
                f"{cell['generated']:.0f} tasks, "
                f"{cell['messages_total']:,.0f} messages, "
                f"{cell['rows_computed']:.0f} BFS rows)" + note
            )
    return {
        "tiers": curve,
        "macro_cells": macro_cells,
        "macro_cells_hot": macro_cells_hot,
    }


def _time_best_of(fn: Callable[[], object], repeats: int) -> float:
    fn()  # warm caches / allocators
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


# --------------------------------------------------------------------------
# Macro benchmark — one Section 5-shaped sweep
# --------------------------------------------------------------------------

def bench_macro_sweep(horizon: float, parallel: bool) -> Dict[str, float]:
    """REALTOR on the 5x5 paper mesh: one run + a small CRN sweep."""
    t0 = time.perf_counter()
    result = run_experiment(paper_config("realtor", 6.0, horizon=horizon))
    single = time.perf_counter() - t0

    base = ExperimentConfig(horizon=horizon, seed=1)
    t0 = time.perf_counter()
    run_sweep(["realtor"], [2.0, 6.0, 10.0], base, parallel=parallel)
    sweep = time.perf_counter() - t0
    return {
        "single_run_seconds": single,
        "single_run_sim_rate": horizon / single,
        "single_run_generated": float(result.generated),
        "sweep_3pt_seconds": sweep,
        "sweep_parallel": float(parallel),
        "horizon": horizon,
    }


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def run_harness(
    *, smoke: bool = False, repeats: int = 5, output: Optional[Path] = None
) -> dict:
    """Run every benchmark and write the JSON report; returns the report."""
    scale = 0.1 if smoke else 1.0
    micro_specs = [
        ("event_throughput", lambda: bench_event_throughput(int(20_000 * scale)),
         int(20_000 * scale)),
        ("flood_throughput", lambda: bench_flood_throughput(int(500 * scale)),
         int(500 * scale)),
        ("queue_admission_throughput",
         lambda: bench_queue_admission_throughput(int(10_000 * scale)),
         int(10_000 * scale)),
        ("queue_scaling_1k",
         lambda: bench_queue_admission_throughput(int(1_000 * scale)),
         int(1_000 * scale)),
        ("queue_scaling_50k",
         lambda: bench_queue_admission_throughput(int(50_000 * scale)),
         int(50_000 * scale)),
        ("queue_steady_state",
         lambda: bench_queue_steady_state(int(20_000 * scale)),
         int(20_000 * scale)),
        ("monitor_churn",
         lambda: bench_monitor_churn(int(20_000 * scale)),
         int(20_000 * scale)),
        ("routing_query_throughput", bench_routing_query_throughput, 625),
    ]
    micro: Dict[str, dict] = {}
    for name, fn, ops in micro_specs:
        best = _time_best_of(fn, repeats)
        entry = {
            "min_seconds": round(best, 6),
            "ops": ops,
            "ops_per_second": round(ops / best, 1),
        }
        ref = BASELINE.get(name, {})
        if not smoke and ref.get("min_seconds") and ref.get("ops") == ops:
            entry["baseline_min_seconds"] = ref["min_seconds"]
            entry["speedup_vs_baseline"] = round(ref["min_seconds"] / best, 2)
        micro[name] = entry
        print(f"  {name:32s} {best*1e3:9.2f} ms"
              + (f"  ({entry['speedup_vs_baseline']}x vs baseline)"
                 if "speedup_vs_baseline" in entry else ""))

    horizon = 60.0 if smoke else 500.0
    macro = bench_macro_sweep(horizon, parallel=not smoke)
    print(f"  {'macro_realtor_sweep':32s} {macro['sweep_3pt_seconds']*1e3:9.2f} ms"
          f"  ({macro['single_run_sim_rate']:.0f} sim-s/wall-s)")

    scaling = run_scaling_curve(smoke=smoke, repeats=repeats)

    report = {
        "schema": "bench-engine/1",
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "micro": micro,
        "macro_realtor": {k: round(v, 4) for k, v in macro.items()},
        "scaling": scaling,
    }
    out = output if output is not None else DEFAULT_OUTPUT
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return report


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny workloads, single repeat — CI wiring check, numbers not "
             "comparable to a full run",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timed repetitions per micro-benchmark (min is reported)",
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=None,
        help=f"report path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.smoke else max(1, args.repeats)
    run_harness(smoke=args.smoke, repeats=repeats, output=args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
