"""CI regression gates for the engine fast paths.

Seven gates, most against the committed ``BENCH_engine.json``:

* **queue gate** — re-measures the ``queue_admission_throughput``
  micro-benchmark at full size (it is fast enough for CI
  post-fast-path: tens of milliseconds) and fails when its throughput
  drops more than ``--tolerance`` (default 30%) below the committed
  value.  This guards the O(1) queue lifecycle, the win that makes
  paper-scale sweeps tractable.

* **observability overhead gate** — re-measures ``event_throughput``
  (the kernel schedule+fire loop, the path that carries the per-event
  ``record is None`` test and the ``trace.enabled`` guards) and fails
  when it regresses more than ``--overhead-tolerance`` (default 5%)
  beyond what the machine-speed difference explains.  Machine speed is
  factored out by normalising with the queue benchmark's
  measured/committed ratio from the same process, so the gate measures
  *relative* overhead of the tracing-disabled paths, not CI hardware.

* **transport overhead gate** — re-measures ``flood_throughput`` (the
  flood fan-out with *no* impairments installed, the path that now
  carries the ``impair is not None`` branch) the same
  machine-speed-normalised way, so the impairment layer's disabled path
  stays within the ``--transport-tolerance`` budget (default 5%).

* **store overhead gate** — times the same tiny sweep twice in this
  process, once plain and once writing every cell into a fresh
  ``RunStore`` (all misses: digest + serialise + append, the worst
  case), and fails when the store-enabled pass is more than
  ``--store-tolerance`` (default 5%) slower.  Both passes run on the
  same machine in the same process, so the ratio is machine-speed
  normalised by construction and needs no committed baseline.

* **obs overhead gate** — runs the 2500-node single-run cell twice in
  this process, plain and with the metrics registry + flight recorder
  installed (``ObsConfig()`` defaults: 64-sample cadence, vectorized
  node-state probes, event/snapshot rings), and fails when the
  obs-enabled run+result phases are more than ``--obs-tolerance``
  (default 5%) slower.  Same-process interleaved ratio, so machine
  speed cancels by construction.

* **scaling gate** — re-measures the 2500-node tier of the topology
  scaling curve (lazy-router setup + distance queries on the 50x50
  torus) against the committed ``scaling`` section, machine-speed
  normalised, with the same ``--tolerance`` as the queue gate; and
  re-runs the eager all-pairs baseline once to assert the lazy router
  keeps a >= 10x advantage — the property that makes the 2.5k-10k node
  tiers tractable at all.

* **events-throughput gate** — re-runs the 2500-node tier's short
  single-run cell and fails when run-phase kernel throughput
  (events/sec, setup excluded) drops more than ``--tolerance`` below
  the committed ``single_run_events_per_second`` after machine-speed
  normalisation.  This is the direct gate on the cohort-batching /
  vectorized-state fast path.  The tier's hot macro cell (load 0.95,
  20 s queues: discovery traffic flows) is gated in the same row, with
  an exact ceiling on the BFS rows it computes (0: hop counts are
  computed only when something consumes them).

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --tolerance 0.5 -o gate.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from harness import (
    DEFAULT_OUTPUT,
    _scaling_cell_config,
    _scaling_query_pairs,
    _time_best_of,
    bench_event_throughput,
    bench_flood_throughput,
    bench_queue_admission_throughput,
    bench_routing_setup_eager,
    bench_routing_setup_lazy,
    bench_scaling_cell,
    bench_tier_single_run,
)

GATED = "queue_admission_throughput"
OPS = 10_000

OVERHEAD_GATED = "event_throughput"
OVERHEAD_OPS = 20_000

TRANSPORT_GATED = "flood_throughput"
TRANSPORT_OPS = 500

#: the scaling tier the CI gate re-measures (the acceptance tier: big
#: enough that the eager all-pairs precompute is seconds, small enough
#: that the lazy path plus one eager baseline run fits a CI budget)
SCALING_GATE_NODES = 2500
OBS_GATE_HORIZON = 20.0  # the tier's macro cell (run_scaling_curve's horizon)
#: the lazy router must beat the eager all-pairs baseline by at least
#: this factor on the tier's query workload — the PR-6 acceptance bar
SCALING_MIN_SPEEDUP = 10.0


def check(
    committed_path: Path,
    tolerance: float,
    repeats: int = 5,
    output: Optional[Path] = None,
    overhead_tolerance: float = 0.05,
    transport_tolerance: float = 0.05,
    store_tolerance: float = 0.05,
    obs_tolerance: float = 0.05,
) -> int:
    committed = json.loads(committed_path.read_text())
    if committed.get("mode") != "full":
        print(f"{committed_path} is a smoke report; nothing to gate against")
        return 0
    entry = committed.get("micro", {}).get(GATED)
    if not entry or entry.get("ops") != OPS:
        print(f"{committed_path} has no full-size {GATED} entry; skipping gate")
        return 0
    committed_ops = entry["ops_per_second"]

    best = _time_best_of(lambda: bench_queue_admission_throughput(OPS), repeats)
    measured_ops = OPS / best
    floor = (1.0 - tolerance) * committed_ops
    ok = measured_ops >= floor
    print(
        f"{GATED}: measured {measured_ops:,.0f} ops/s, "
        f"committed {committed_ops:,.0f} ops/s, floor {floor:,.0f} ops/s "
        f"({(1.0 - tolerance):.0%} of committed) -> {'OK' if ok else 'REGRESSION'}"
    )

    # The ratio exists to forgive a *slower* CI machine; it must never
    # raise a floor above the committed value.  Container speed swings
    # are not uniform across benchmarks (the queue bench can run 25%
    # faster in the same minute the flood bench runs 10% slower), so an
    # uncapped >1 ratio turns machine noise into false regressions.
    speed_ratio = min(1.0, measured_ops / committed_ops)

    overhead = check_overhead(
        committed,
        speed_ratio=speed_ratio,
        tolerance=overhead_tolerance,
        repeats=repeats,
    )
    if overhead is not None:
        ok = ok and overhead["passed"]

    transport = check_transport_overhead(
        committed,
        speed_ratio=speed_ratio,
        tolerance=transport_tolerance,
        repeats=repeats,
    )
    if transport is not None:
        ok = ok and transport["passed"]

    store = check_store_overhead(
        tolerance=store_tolerance,
        repeats=repeats,
    )
    ok = ok and store["passed"]

    obs = check_obs_overhead(
        tolerance=obs_tolerance,
        repeats=repeats,
    )
    ok = ok and obs["passed"]

    scaling = check_scaling(
        committed,
        speed_ratio=speed_ratio,
        tolerance=tolerance,
        repeats=repeats,
    )
    if scaling is not None:
        ok = ok and scaling["passed"]

    events = check_events_throughput(
        committed,
        speed_ratio=speed_ratio,
        tolerance=tolerance,
    )
    if events is not None:
        ok = ok and events["passed"]

    if output is not None:
        report = {
            "benchmark": GATED,
            "ops": OPS,
            "measured_min_seconds": round(best, 6),
            "measured_ops_per_second": round(measured_ops, 1),
            "committed_ops_per_second": committed_ops,
            "tolerance": tolerance,
            "passed": measured_ops >= floor,
        }
        if overhead is not None:
            report["overhead_gate"] = overhead
        if transport is not None:
            report["transport_gate"] = transport
        report["store_gate"] = store
        report["obs_gate"] = obs
        if scaling is not None:
            report["scaling_gate"] = scaling
        if events is not None:
            report["events_gate"] = events
        output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {output}")
    return 0 if ok else 1


def check_overhead(
    committed: dict,
    *,
    speed_ratio: float,
    tolerance: float = 0.05,
    repeats: int = 5,
) -> Optional[dict]:
    """Gate the tracing-disabled kernel loop against relative regression.

    ``speed_ratio`` is this machine's measured/committed throughput on
    the queue benchmark; the kernel-loop floor is scaled by it so a
    uniformly slower CI machine passes while a genuine per-event cost
    added to the disabled paths (tracing guards, profiler hook) fails.
    """
    entry = committed.get("micro", {}).get(OVERHEAD_GATED)
    if not entry or entry.get("ops") != OVERHEAD_OPS:
        print(
            f"no full-size {OVERHEAD_GATED} entry; skipping overhead gate"
        )
        return None
    committed_ops = entry["ops_per_second"]
    best = _time_best_of(lambda: bench_event_throughput(OVERHEAD_OPS), repeats)
    measured_ops = OVERHEAD_OPS / best
    floor = (1.0 - tolerance) * committed_ops * speed_ratio
    ok = measured_ops >= floor
    print(
        f"{OVERHEAD_GATED} (observability overhead): "
        f"measured {measured_ops:,.0f} ops/s, "
        f"committed {committed_ops:,.0f} ops/s, "
        f"machine-speed ratio {speed_ratio:.2f}, floor {floor:,.0f} ops/s "
        f"(<{tolerance:.0%} relative overhead) -> "
        f"{'OK' if ok else 'REGRESSION'}"
    )
    return {
        "benchmark": OVERHEAD_GATED,
        "ops": OVERHEAD_OPS,
        "measured_min_seconds": round(best, 6),
        "measured_ops_per_second": round(measured_ops, 1),
        "committed_ops_per_second": committed_ops,
        "speed_ratio": round(speed_ratio, 4),
        "tolerance": tolerance,
        "passed": ok,
    }


def check_transport_overhead(
    committed: dict,
    *,
    speed_ratio: float,
    tolerance: float = 0.05,
    repeats: int = 5,
) -> Optional[dict]:
    """Gate the impairments-off transport path against relative regression.

    ``flood_throughput`` builds a default transport — no fault predicates,
    no impairment engine — so its fan-out loop runs the exact branch
    structure every paper-faithful experiment uses.  The floor scales with
    ``speed_ratio`` like the kernel-loop gate: only cost added to the
    disabled path itself (the impairment hook check, the live-router
    fallback) can fail it.
    """
    entry = committed.get("micro", {}).get(TRANSPORT_GATED)
    if not entry or entry.get("ops") != TRANSPORT_OPS:
        print(f"no full-size {TRANSPORT_GATED} entry; skipping transport gate")
        return None
    committed_ops = entry["ops_per_second"]
    best = _time_best_of(lambda: bench_flood_throughput(TRANSPORT_OPS), repeats)
    measured_ops = TRANSPORT_OPS / best
    floor = (1.0 - tolerance) * committed_ops * speed_ratio
    ok = measured_ops >= floor
    print(
        f"{TRANSPORT_GATED} (impairments-off transport overhead): "
        f"measured {measured_ops:,.0f} ops/s, "
        f"committed {committed_ops:,.0f} ops/s, "
        f"machine-speed ratio {speed_ratio:.2f}, floor {floor:,.0f} ops/s "
        f"(<{tolerance:.0%} relative overhead) -> "
        f"{'OK' if ok else 'REGRESSION'}"
    )
    return {
        "benchmark": TRANSPORT_GATED,
        "ops": TRANSPORT_OPS,
        "measured_min_seconds": round(best, 6),
        "measured_ops_per_second": round(measured_ops, 1),
        "committed_ops_per_second": committed_ops,
        "speed_ratio": round(speed_ratio, 4),
        "tolerance": tolerance,
        "passed": ok,
    }


def check_scaling(
    committed: dict,
    *,
    speed_ratio: float,
    tolerance: float = 0.3,
    repeats: int = 3,
) -> Optional[dict]:
    """Gate the 2500-node routing tier of the scaling curve.

    Re-measures lazy-router setup+queries on the 2500-node torus and
    fails when throughput drops more than ``tolerance`` below the
    committed curve after machine-speed normalisation (the ratio from
    the queue gate).  Also re-runs the eager all-pairs baseline once and
    fails when the lazy router's advantage falls below
    ``SCALING_MIN_SPEEDUP`` — that factor *is* what makes the 2.5k-10k
    tiers tractable, so losing it is a regression even if absolute
    timings still look small.
    """
    import time

    from repro.network.generators import square_torus

    entry = (
        committed.get("scaling", {}).get("tiers", {}).get(str(SCALING_GATE_NODES))
    )
    if not entry or "routing_lazy_min_seconds" not in entry:
        print(
            f"no {SCALING_GATE_NODES}-node scaling entry; skipping scaling gate"
        )
        return None
    committed_seconds = entry["routing_lazy_min_seconds"]
    queries = entry["routing_queries"]
    committed_ops = queries / committed_seconds

    topo = square_torus(SCALING_GATE_NODES)
    pairs = _scaling_query_pairs(SCALING_GATE_NODES)
    if len(pairs) != queries:
        print(
            f"scaling workload changed ({len(pairs)} queries vs committed "
            f"{queries}); skipping scaling gate — re-run the full harness"
        )
        return None
    best = _time_best_of(lambda: bench_routing_setup_lazy(topo, pairs), repeats)
    measured_ops = queries / best
    floor = (1.0 - tolerance) * committed_ops * speed_ratio
    ok = measured_ops >= floor
    print(
        f"routing_scaling_{SCALING_GATE_NODES} (lazy setup+queries): "
        f"measured {measured_ops:,.0f} ops/s, "
        f"committed {committed_ops:,.0f} ops/s, "
        f"machine-speed ratio {speed_ratio:.2f}, floor {floor:,.0f} ops/s "
        f"({(1.0 - tolerance):.0%} of committed) -> "
        f"{'OK' if ok else 'REGRESSION'}"
    )

    t0 = time.perf_counter()
    bench_routing_setup_eager(topo, pairs)
    eager = time.perf_counter() - t0
    speedup = eager / best
    speedup_ok = speedup >= SCALING_MIN_SPEEDUP
    ok = ok and speedup_ok
    print(
        f"routing_scaling_{SCALING_GATE_NODES} (lazy vs eager all-pairs): "
        f"{speedup:.1f}x (floor {SCALING_MIN_SPEEDUP:.0f}x) -> "
        f"{'OK' if speedup_ok else 'REGRESSION'}"
    )
    return {
        "benchmark": f"routing_scaling_{SCALING_GATE_NODES}",
        "ops": queries,
        "measured_min_seconds": round(best, 6),
        "measured_ops_per_second": round(measured_ops, 1),
        "committed_ops_per_second": round(committed_ops, 1),
        "eager_seconds": round(eager, 6),
        "speedup_lazy_vs_eager": round(speedup, 1),
        "min_speedup": SCALING_MIN_SPEEDUP,
        "speed_ratio": round(speed_ratio, 4),
        "tolerance": tolerance,
        "passed": ok,
    }


def check_events_throughput(
    committed: dict,
    *,
    speed_ratio: float,
    tolerance: float = 0.3,
    repeats: int = 2,
) -> Optional[dict]:
    """Gate run-phase kernel throughput of the 2500-node REALTOR cells.

    Re-runs the tier's short idle cell (the same workload the harness's
    ``single_run_events_per_second`` column measures: run-phase only,
    setup excluded) and fails when events/sec drops more than
    ``tolerance`` below the committed value after machine-speed
    normalisation.  This is the gate on the cohort-batching fast path
    itself — routing and flood gates would stay green if the event loop
    regressed, because they bypass most of it.

    The tier's *hot* macro cell (``macro_cells_hot``: discovery, floods
    and unicasts actually run) rides the same row: same floor rule, plus
    an exact check that it computes no more BFS rows than committed — 0
    since hop counts are computed on demand.
    """
    scaling = committed.get("scaling", {})
    tier = str(SCALING_GATE_NODES)
    single = scaling.get("tiers", {}).get(tier, {})
    hot = scaling.get("macro_cells_hot", {}).get(tier, {})
    #: (report key, committed events/s, committed BFS-row ceiling, runner)
    cells = []
    if "single_run_events_per_second" in single:
        cells.append((
            "single_run", single["single_run_events_per_second"], None,
            lambda: bench_tier_single_run(
                SCALING_GATE_NODES, horizon=single.get("single_run_horizon")
            ),
        ))
    if "events_per_second" in hot:
        cells.append((
            "hot_cell", hot["events_per_second"], hot["rows_computed"],
            lambda: bench_scaling_cell(
                SCALING_GATE_NODES, horizon=hot["horizon"], hot=True
            ),
        ))
    if not cells:
        print(
            f"no {SCALING_GATE_NODES}-node single-run entry; skipping events gate"
        )
        return None

    report: dict = {"benchmark": f"events_throughput_{SCALING_GATE_NODES}"}
    for key, committed_ops, max_rows, run in cells:
        best = max(
            (run() for _ in range(max(1, repeats))),
            key=lambda cell: cell["events_per_second"],
        )
        best_ops = best["events_per_second"]
        floor = (1.0 - tolerance) * committed_ops * speed_ratio
        ok = best_ops >= floor and (
            max_rows is None or best["rows_computed"] <= max_rows
        )
        print(
            f"events_throughput_{SCALING_GATE_NODES} ({key}): "
            f"measured {best_ops:,.0f} events/s, "
            f"committed {committed_ops:,.0f} events/s, "
            f"machine-speed ratio {speed_ratio:.2f}, floor {floor:,.0f} events/s "
            f"({(1.0 - tolerance):.0%} of committed), "
            f"{best['rows_computed']:.0f} BFS rows"
            + ("" if max_rows is None else f" (ceiling {max_rows:.0f})")
            + f" -> {'OK' if ok else 'REGRESSION'}"
        )
        report[key] = {
            "horizon": best["horizon"],
            "events_executed": int(best["events_executed"]),
            "rows_computed": int(best["rows_computed"]),
            "measured_seconds": round(best["seconds"], 6),
            "measured_events_per_second": round(best_ops, 1),
            "committed_events_per_second": committed_ops,
            "speed_ratio": round(speed_ratio, 4),
            "tolerance": tolerance,
            "passed": ok,
        }
    report["passed"] = all(report[key]["passed"] for key, *_ in cells)
    return report


def check_store_overhead(
    *,
    tolerance: float = 0.05,
    repeats: int = 5,
) -> dict:
    """Gate the run store's per-cell cost against a store-less sweep.

    Times the identical tiny sweep with and without a ``RunStore``
    attached — fresh store directory per repeat, so every cell pays the
    full miss path (digest, canonical-JSON serialise, shard append,
    index flush).  Comparing the two best-of-``repeats`` times from the
    same process factors machine speed out entirely; the ratio only
    moves when the store hook itself gets more expensive.
    """
    import shutil
    import tempfile
    import time

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.store import RunStore
    from repro.experiments.sweep import run_sweep

    protocols = ["realtor", "push-1"]
    rates = [2.0, 6.0]
    base = ExperimentConfig(horizon=150.0)

    run_sweep(protocols, rates, base)  # untimed warm-up: imports, allocator

    def stored() -> None:
        root = tempfile.mkdtemp(prefix="store-gate-")
        try:
            run_sweep(protocols, rates, base, store=RunStore(root))
        finally:
            shutil.rmtree(root, ignore_errors=True)

    # Interleave the two variants so a noisy-neighbour slowdown lands on
    # both sides of the ratio instead of biasing whichever ran second.
    plain = with_store = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_sweep(protocols, rates, base)
        plain = min(plain, time.perf_counter() - start)
        start = time.perf_counter()
        stored()
        with_store = min(with_store, time.perf_counter() - start)
    ratio = with_store / plain
    ok = ratio <= 1.0 + tolerance
    print(
        f"store_overhead: plain {plain:.4f}s, store-enabled {with_store:.4f}s, "
        f"ratio {ratio:.3f} (ceiling {1.0 + tolerance:.3f}) -> "
        f"{'OK' if ok else 'REGRESSION'}"
    )
    return {
        "benchmark": "store_overhead",
        "plain_min_seconds": round(plain, 6),
        "store_min_seconds": round(with_store, 6),
        "ratio": round(ratio, 4),
        "tolerance": tolerance,
        "passed": ok,
    }


def check_obs_overhead(
    *,
    tolerance: float = 0.05,
    repeats: int = 5,
) -> dict:
    """Gate the metrics registry + flight recorder on the 2500-node cell.

    The budget is ``tolerance`` of the tier's *plain* macro-cell wall
    time (run+result phases; setup is excluded because 2500-agent
    construction is dominated by GC pauses).  The spend is measured
    deterministically rather than as an end-to-end wall ratio: a direct
    A/B of two ~100 ms runs needs sub-5% timing noise, which shared CI
    boxes simply do not offer (observed single-run spread here exceeds
    +-15%).  Instead the gate builds the obs-enabled system, advances it
    to mid-run (populated queues), and times the registry's two tick
    flavours in tight min-of-several loops — the lean per-tick probe and
    the strided deep tick (usage distribution + O(V) agent sums) — both
    stable to a few percent.  Projected overhead is the per-run tick
    schedule priced at those costs; the gate fails when it exceeds the
    budget.  Everything the enabled path adds per tick lives inside
    ``MetricsRegistry.sample`` (probes, series appends, recorder
    snapshot), so the projection only omits the ~65 shared-timer heap
    operations per run (~microseconds each, far below resolution).
    """
    import gc
    import time

    from repro.experiments.runner import build_system
    from repro.obs.config import ObsConfig

    def run_plain() -> float:
        cfg = _scaling_cell_config(SCALING_GATE_NODES, OBS_GATE_HORIZON)
        system = build_system(cfg)
        gc.collect()  # keep build garbage out of the timed region
        start = time.perf_counter()
        system.run()
        system.result()
        return time.perf_counter() - start

    def tick_cost(fn, iters: int) -> float:
        fn()  # warm-up
        best = float("inf")
        gc.collect()
        gc.disable()  # series appends allocate; keep GC out of the loop
        try:
            for _ in range(max(3, repeats)):
                start = time.perf_counter()
                for _ in range(iters):
                    fn()
                best = min(best, (time.perf_counter() - start) / iters)
        finally:
            gc.enable()
        return best

    run_plain()  # untimed warm-up: imports, numpy dispatch
    plain = float("inf")
    for _ in range(repeats):
        plain = min(plain, run_plain())

    obs = ObsConfig()
    cfg = _scaling_cell_config(SCALING_GATE_NODES, OBS_GATE_HORIZON, obs=obs)
    system = build_system(cfg)
    system.run(until=OBS_GATE_HORIZON / 2)  # mid-run: queues populated
    registry = system.registry
    lean = tick_cost(registry.sample, 1000)
    deep = tick_cost(lambda: registry.sample(final=True), 200)

    # the per-run schedule: t=0 baseline + samples_target cadence ticks,
    # of which every stride-th (plus the final sample) runs the deep block
    ticks = obs.samples_target + 1
    deep_ticks = (ticks + obs.agent_stride - 1) // obs.agent_stride + 1
    projected = (ticks - deep_ticks) * lean + deep_ticks * deep
    budget = tolerance * plain
    ratio = 1.0 + projected / plain
    ok = projected <= budget
    print(
        f"obs_overhead ({SCALING_GATE_NODES}-node macro cell, "
        f"registry+recorder): plain {plain:.4f}s, "
        f"lean tick {lean * 1e6:.1f}us x {ticks - deep_ticks}, "
        f"deep tick {deep * 1e6:.1f}us x {deep_ticks}, "
        f"projected overhead {projected * 1e3:.2f}ms "
        f"(budget {budget * 1e3:.2f}ms), ratio {ratio:.3f} "
        f"(ceiling {1.0 + tolerance:.3f}) -> "
        f"{'OK' if ok else 'REGRESSION'}"
    )
    return {
        "benchmark": f"obs_overhead_{SCALING_GATE_NODES}",
        "horizon": OBS_GATE_HORIZON,
        "plain_min_seconds": round(plain, 6),
        "lean_tick_seconds": round(lean, 9),
        "deep_tick_seconds": round(deep, 9),
        "ticks": ticks,
        "deep_ticks": deep_ticks,
        "projected_overhead_seconds": round(projected, 6),
        "ratio": round(ratio, 4),
        "tolerance": tolerance,
        "passed": ok,
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--committed", type=Path, default=DEFAULT_OUTPUT,
        help=f"committed benchmark report (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.3,
        help="allowed fractional drop below the committed throughput",
    )
    parser.add_argument(
        "--overhead-tolerance", type=float, default=0.05,
        help="allowed relative regression of the tracing-disabled kernel "
             "loop after machine-speed normalisation (default 5%%)",
    )
    parser.add_argument(
        "--transport-tolerance", type=float, default=0.05,
        help="allowed relative regression of the impairments-off transport "
             "fan-out after machine-speed normalisation (default 5%%)",
    )
    parser.add_argument(
        "--store-tolerance", type=float, default=0.05,
        help="allowed fractional slowdown of a store-enabled sweep over "
             "the identical store-less sweep, same-process ratio "
             "(default 5%%)",
    )
    parser.add_argument(
        "--obs-tolerance", type=float, default=0.05,
        help="allowed fractional slowdown of the registry+flight-recorder "
             "enabled 2500-node cell over the identical plain cell, "
             "same-process ratio (default 5%%)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timed repetitions (min is compared; the 5%% overhead gate "
             "needs min-of-several to sit below scheduler noise)",
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=None,
        help="optional JSON gate report (for CI artifacts)",
    )
    args = parser.parse_args(argv)
    return check(
        args.committed,
        args.tolerance,
        args.repeats,
        args.output,
        overhead_tolerance=args.overhead_tolerance,
        transport_tolerance=args.transport_tolerance,
        store_tolerance=args.store_tolerance,
        obs_tolerance=args.obs_tolerance,
    )


if __name__ == "__main__":
    sys.exit(main())
