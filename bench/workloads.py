"""The five benchmark workloads.

Each workload has a ``setup(seed)`` (what a user pays before the first
event: returns the built state and the seconds it took) and a
``run(state, seed)`` that times its own measured region, checks the
outputs and returns a :class:`Rep`.  Inputs derive from the seed alone;
why each workload exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import resource
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
_SRC = BENCH.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments import (  # noqa: E402
    CellExecutionError,
    ExperimentConfig,
    RunStore,
    paper_config,
    run_sweep,
    runner,
)
from repro.experiments.figures import (  # noqa: E402
    DEFAULT_RATES,
    fig5_admission_probability,
    fig6_message_overhead,
    fig7_cost_per_task,
    fig8_migration_rate,
)
from repro.experiments.plan import sweep_plan  # noqa: E402
from repro.live.runtime import LiveConfig, LiveRuntime  # noqa: E402
from repro.metrics.collector import RunResult  # noqa: E402
from repro.node.task import TaskOutcome  # noqa: E402
from repro.protocols.registry import PAPER_PROTOCOLS  # noqa: E402
from repro.sim.rng import RandomStreams  # noqa: E402
from repro.workload.arrivals import PoissonArrivals  # noqa: E402

__all__ = [
    "Rep", "Laps", "calibrate", "normalised", "make_workloads", "fingerprint",
    "due_times", "peak_rss_mb",
]


def peak_rss_mb() -> float:
    """Peak resident set of *this* process image, MB.

    ``VmHWM`` belongs to the address space created by ``exec``; Linux
    ``ru_maxrss`` also folds in the parent's peak at exec time, so a
    large parent would inflate every child it measures.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: seconds one :func:`calibrate` chunk takes on the reference machine (the
#: 2-core box of bench/README.md between its slow bursts).  It only scales
#: the normalised times back to seconds; changing it rescales every
#: baseline, so it stays fixed.
CALIBRATION_REF_S = 0.022


class _Cell:
    def __init__(self, i: int) -> None:
        self.count = i
        self.seen: Dict[int, int] = {}

    def touch(self, key: int) -> Optional[int]:
        self.seen[key] = self.count
        self.count += 1
        return self.seen.get(key - 1)


def calibrate() -> Tuple[float, float]:
    """(wall, cpu) seconds of a fixed chunk of interpreter and numpy work.

    The machine's speed as the benchmark sees it at this moment: method
    calls, attribute and dict traffic, then gathers, masks and a sort on
    10 000-element arrays — the mix the simulator itself is made of, but
    none of its code, so a change to ``src/`` cannot move it.
    """
    cpu0 = process_time()
    t0 = perf_counter()
    cells = [_Cell(i) for i in range(2000)]
    for i in range(12_000):
        cells[(i * 7919) % 2000].touch(i & 63)
    a = np.arange(10_000)
    idx = (a * 7919) % 10_000
    for _ in range(80):
        b = a[idx]
        np.unique(b[:2000])
        b[b < 5000]
    return perf_counter() - t0, process_time() - cpu0


def normalised(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, given the calibration chunk's
    seconds just before and just after the timed region."""
    return seconds * CALIBRATION_REF_S / ((before + after) / 2.0)


class Laps:
    """Wall and CPU time of each slice of one repetition.

    Repetitions of a workload and seed do identical work slice by slice.
    Each slice is bracketed by :func:`calibrate` chunks (outside the
    timed region) and reported at reference speed, and the per-slice
    minimum over repetitions then filters what the bracketing missed
    (bench/README.md, "Estimators").  ``calibrated=False`` keeps raw
    seconds — the live runs are paced by the wall clock, not the CPU.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self._calibrated = calibrated
        self.raw: List[Tuple[float, float]] = []
        self.laps: List[Tuple[float, float]] = []
        self._cal = calibrate() if calibrated else (0.0, 0.0)
        self.t0 = self.t1 = perf_counter()
        self._cpu = process_time()

    def mark(self) -> None:
        t1, cpu1 = perf_counter(), process_time()
        wall, cpu = t1 - self.t1, cpu1 - self._cpu
        self.raw.append((wall, cpu))
        if self._calibrated:
            cal = calibrate()
            self.laps.append((
                normalised(wall, self._cal[0], cal[0]),
                normalised(cpu, self._cal[1], cal[1]),
            ))
            self._cal = cal
        else:
            self.laps.append((wall, cpu))
        self.t1 = perf_counter()
        self._cpu = process_time()

    def update(self, _config, _result, cached: bool = False) -> None:
        """``run_sweep(progress=...)`` hook: one slice per finished cell."""
        self.mark()


@dataclass
class Rep:
    """One measured repetition of a workload."""

    timing: Laps
    tasks: int                   # generated tasks (the throughput denominator)
    attempted: int               # sim: cells; live: tasks
    failed: int
    fingerprint: str = ""        # simulated statistics (sim workloads only)
    #: per-layer numbers the objects expose without tracing; keys that
    #: start with "_" are inputs to derived metrics, not metrics
    layer: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def window(self) -> Tuple[float, float]:
        """``perf_counter`` bounds of the measured region."""
        return self.timing.t0, self.timing.t1

    @property
    def laps(self) -> List[Tuple[float, float]]:
        return self.timing.laps

    @property
    def wall_s(self) -> float:
        """Seconds actually measured (raw, calibration chunks excluded)."""
        return sum(wall for wall, _ in self.timing.raw)


def fingerprint(results: Iterable[RunResult]) -> str:
    """sha256 over every cell's simulated statistics, in cell order.

    Event counts are left out on purpose: an optimisation may fire fewer
    events and still be a pure speed-up; it may not change these.
    """
    rows = [
        [
            r.generated, r.admitted_local, r.admitted_migrated, r.rejected,
            r.lost, r.messages_total, sorted(r.messages_by_kind.items()),
        ]
        for r in results
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _sim_layer(results: List[RunResult]) -> Dict[str, float]:
    def total(key: str) -> float:
        return sum(r.extra.get(key, 0.0) for r in results)

    generated = sum(r.generated for r in results)
    migrated = sum(r.admitted_migrated for r in results)
    attempts = total("first_choice_attempts")
    return {
        "workload.generated": generated,
        "network.sent": total("sent_messages"),
        "network.delivered": total("delivered_messages"),
        "network.dropped": total("dropped_messages"),
        "network.sends_per_task": total("sent_messages") / generated,
        "migration.attempts": attempts,
        "migration.success_ratio": migrated / attempts if attempts else 0.0,
        "migration.misrank_rate": (
            total("first_choice_failures") / attempts if attempts else 0.0
        ),
        "_batched_events": total("cohort_batched_events"),
        "_accepted": sum(r.admitted for r in results),
    }


class PaperGrid:
    """Section 5: five protocols x lambda=1..10 on the 25-node mesh, run
    cold into a RunStore, replayed warm, Figures 5-8 regenerated."""

    name = "paper_grid"
    repeatable = True
    #: shortest horizon at which the 100 s queues fill and the figures'
    #: shapes appear; the paper's 10 000 s takes minutes per repetition
    HORIZON = 500.0
    FIGURES = (
        fig5_admission_probability,
        fig6_message_overhead,
        fig7_cost_per_task,
        fig8_migration_rate,
    )
    REPLAYS = 20

    def _base(self, seed: int) -> ExperimentConfig:
        return paper_config("realtor", DEFAULT_RATES[0]).with_(
            horizon=self.HORIZON, seed=seed
        )

    def setup(self, seed: int) -> Tuple[None, float]:
        # run_sweep builds each cell's system itself; this is the same
        # fifty builds on their own, so work moved into build_system shows
        plan = sweep_plan(PAPER_PROTOCOLS, DEFAULT_RATES, self._base(seed))
        t0 = perf_counter()
        for cell in plan:
            runner.build_system(cell.config)
        return None, perf_counter() - t0

    def run(self, _state: None, seed: int) -> Rep:
        base = self._base(seed)
        cells = len(PAPER_PROTOCOLS) * len(DEFAULT_RATES)
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT, prefix="store-") as tmp:
            cold = None
            t = Laps()
            try:
                cold = run_sweep(
                    PAPER_PROTOCOLS, DEFAULT_RATES, base, store=RunStore(tmp),
                    progress=t,
                )
            except CellExecutionError as exc:
                failure = exc
            t.mark()  # store flush and reduction
            if cold is None:
                return Rep(
                    t, 0, cells, len(failure.failures),
                    errors=[str(failure)],
                )
            replay_ms = []
            for _ in range(self.REPLAYS):
                t0 = perf_counter()
                store = RunStore(tmp)
                warm = run_sweep(PAPER_PROTOCOLS, DEFAULT_RATES, base, store=store)
                figures = [fig(raw=warm) for fig in self.FIGURES]
                replay_ms.append((perf_counter() - t0) * 1e3)

        results = [cold[p][r] for p in cold for r in cold[p]]
        errors = []
        if (store.hits, store.misses) != (cells, 0):
            errors.append(f"warm replay: {store.hits} hits / {store.misses} misses")
        if warm != cold:
            errors.append("warm replay differs from the cold results")
        checks = [c for fig in figures for c in fig.checks]
        layer = _sim_layer(results)
        layer["experiments.replay_ms"] = float(np.median(replay_ms))
        # statistical claims about the curves: reported, not gated — at
        # this horizon one in a few seeds misses one of them
        layer["experiments.shape_checks_passed"] = sum(c.passed for c in checks)
        return Rep(
            t, int(layer["workload.generated"]), cells, 0,
            fingerprint(results), layer, errors,
        )


class Scale:
    """One REALTOR cell on a large torus."""

    repeatable = True
    SLICES = 20

    def __init__(
        self, name: str, nodes: int, load: float, queue: float, horizon: float
    ) -> None:
        self.name = name
        self.nodes = nodes
        self.load = load
        self.queue = queue
        self.horizon = horizon

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            topology="torus",
            nodes=self.nodes,
            arrival_rate=self.load * self.nodes / 5.0,  # task_mean is 5 s
            queue_capacity=self.queue,
            horizon=self.horizon,
            seed=seed,
        )

    def setup(self, seed: int) -> Tuple[runner.System, float]:
        cfg = self.config(seed)
        t0 = perf_counter()
        system = runner.build_system(cfg)
        return system, perf_counter() - t0

    def run(self, system: runner.System, seed: int) -> Rep:
        result = None
        t = Laps()
        try:
            # the kernel resumes across run() calls, so slicing the
            # horizon changes nothing it computes
            for k in range(1, self.SLICES):
                system.run(until=self.horizon * k / self.SLICES)
                t.mark()
            system.run()
            t.mark()
            result = system.result()
        except AssertionError as exc:  # check_conservation
            failure = exc
        t.mark()
        if result is None:
            return Rep(t, 0, 1, 1, errors=[repr(failure)])
        return Rep(
            t, result.generated, 1, 0,
            fingerprint([result]), _sim_layer([result]),
        )


def due_times(seed: int, rate: float, horizon: float, nodes: int) -> np.ndarray:
    """Virtual due time of every arrival, regenerated from the seed.

    Replays ``ArrivalGenerator``'s draws through the public
    :class:`PoissonArrivals` — one gap, then one origin per arrival, from
    the single ``"arrivals"`` stream — and the same running float sum, so
    entry ``k`` is bit-equal to task ``k``'s scheduled instant.
    """
    process = PoissonArrivals(rate, RandomStreams(seed).stream("arrivals"))
    live_nodes = list(range(nodes))
    out = []
    t = 0.0
    while True:
        t = t + process.next_gap()
        if t > horizon:
            return np.array(out)
        out.append(t)
        process.next_origin(live_nodes)


class Live:
    """Open loop on the asyncio runtime: 2000 tasks per wall second at
    offered load 1.0 on 25 nodes, then drain."""

    repeatable = False  # one run; its length follows --seconds
    NODES = 25
    RATE = 5.0          # tasks per virtual second; load 1.0 at task_mean 5
    TIME_SCALE = 400.0  # virtual seconds per wall second

    def __init__(self, name: str, backend: str, load_wall_s: float) -> None:
        self.name = name
        self.backend = backend
        self.horizon = load_wall_s * self.TIME_SCALE

    def config(self, seed: int) -> LiveConfig:
        return LiveConfig(
            nodes=self.NODES,
            protocol="realtor",
            arrival_rate=self.RATE,
            time_scale=self.TIME_SCALE,
            horizon=self.horizon,
            backend=self.backend,
            queue_capacity=100.0,
            seed=seed,
        )

    def setup(self, seed: int) -> Tuple[None, float]:
        cfg = self.config(seed)

        async def go() -> float:
            t0 = perf_counter()
            rt = LiveRuntime(cfg)
            await rt.transport.start()
            seconds = perf_counter() - t0
            # LiveRuntime.run() starts its own transport, so this one is
            # only ever timed
            await rt.transport.aclose()
            return seconds

        return None, asyncio.run(go())

    def run(self, _state: None, seed: int) -> Rep:
        cfg = self.config(seed)
        due = due_times(seed, self.RATE, cfg.horizon, self.NODES)
        settled: List[tuple] = []

        async def go():
            rt = LiveRuntime(cfg)
            # Settlement observer: the runtime times a task from its
            # emission, which hides how late the emission itself was; the
            # task and the virtual clock at settlement let the latency be
            # taken from the due time instead.
            metrics, sim = rt.metrics, rt.sim
            for hook in ("task_admitted", "task_rejected", "task_lost"):
                inner = getattr(metrics, hook)

                def observe(task, inner=inner):
                    settled.append((task, sim.now))
                    inner(task)

                setattr(metrics, hook, observe)
            t = Laps(calibrated=False)
            report = await rt.run()
            t.mark()
            return rt, report, t

        rt, report, t = asyncio.run(go())
        tasks = report["tasks"]
        generated = tasks["generated"]
        first: Dict[int, tuple] = {}
        for task, at in settled:
            first.setdefault(task.task_id, (task, at))
        unsettled = generated - len(first)
        errors = []
        if generated != len(due):
            errors.append(f"generated {generated}, schedule has {len(due)}")
        if unsettled or rt.metrics.unsettled:
            errors.append(f"{unsettled} tasks unsettled at drain")
        if tasks["lost"]:
            errors.append(f"{tasks['lost']} tasks lost")
        accounted = tasks["admitted_local"] + tasks["admitted_migrated"] + tasks["rejected"]
        if accounted != generated:
            errors.append(f"conservation: {accounted} settled of {generated}")
        if not report["drained"] or not report["clean_shutdown"]:
            errors.append("shutdown was not clean")
        if generated != len(due) or not first:
            # no task-to-due-time mapping to take latencies from
            return Rep(t, generated, max(generated, 1),
                       max(unsettled, 1), errors=errors)

        ids = np.fromiter(first, dtype=np.int64, count=len(first))
        at = np.array([first[i][1] for i in ids])
        emitted = np.array([first[i][0].arrival_time for i in ids])
        outcomes = [first[i][0].outcome for i in ids]
        to_ms = 1e3 / self.TIME_SCALE
        settle_ms = (at - due[ids]) * to_ms
        lag_ms = (emitted - due[ids]) * to_ms
        is_migrated = np.array([o is TaskOutcome.MIGRATED for o in outcomes])
        is_local = np.array([o is TaskOutcome.LOCAL for o in outcomes])
        # one window per wall second of due time (~2000 tasks, ~60 migrated)
        second = (due[ids] / self.TIME_SCALE).astype(int)

        def windowed(values: np.ndarray, q: float, mask=None) -> float:
            """Median over the windows of each window's ``q``-th percentile:
            a slow burst of the machine spoils a few windows, not the figure."""
            keep = np.ones(len(values), bool) if mask is None else mask
            per_window = []
            for w in range(second.max() + 1):
                pick = keep & (second == w)
                if pick.any():
                    per_window.append(np.percentile(values[pick], q))
            return float(np.median(per_window)) if per_window else 0.0

        scheduler = report["scheduler"]
        messages = report["messages"]
        ranking = rt.coordinator.ranking_stats()
        attempts = ranking["first_choice_attempts"]
        layer = {
            "workload.generated": generated,
            "migration.attempts": attempts,
            "migration.success_ratio": (
                tasks["admitted_migrated"] / attempts if attempts else 0.0
            ),
            "migration.misrank_rate": ranking["misrank_rate"],
            "_accepted": tasks["admitted"],
            "live.events": scheduler["events_executed"],
            "live.late_event_share": (
                scheduler["late_events"] / scheduler["events_executed"]
            ),
            "live.arrival_lag_p50_ms": windowed(lag_ms, 50),
            "live.arrival_lag_p99_ms": windowed(lag_ms, 99),
            "live.sent": messages["sent"],
            "live.delivered": messages["delivered"],
            "live.dropped": messages["dropped"],
            "live.settle_samples": len(settle_ms),
            "live.settle_migrated_samples": int(is_migrated.sum()),
            "live.settle_migrated_p50_ms": windowed(settle_ms, 50, is_migrated),
            "live.settle_local_p50_ms": windowed(settle_ms, 50, is_local),
            "live.settle_p99_ms": windowed(settle_ms, 99),
            # whole-run tail, not windowed: 2000 samples cannot carry a p99.9
            "live.settle_p999_ms": float(np.percentile(settle_ms, 99.9)),
            "live.cpu_util": t.raw[0][1] / t.raw[0][0],
        }
        return Rep(
            t, generated, generated,
            unsettled + tasks["lost"], "", layer, errors,
        )


def make_workloads(seconds: float) -> Dict[str, object]:
    """Every workload, sized for a measured region of ``seconds``.

    The simulated workloads have a fixed size and repeat while the
    seconds last; the live ones generate load for the seconds less a
    margin for drain and teardown.
    """
    load_wall_s = max(1.0, seconds - 2.0)
    workloads = [
        PaperGrid(),
        # discovery active: load 0.95 against 20 s queues.  2500 nodes, not
        # 10 000: a unicast source pays one BFS row over the overlay, and
        # at 10 000 nodes a 4 s repetition holds only ~280 HELP rounds, so
        # its cost per task moves 13 % from seed to seed; here it holds
        # ~1000 and moves 4 %
        Scale("scale_hot", nodes=2500, load=0.95, queue=20.0, horizon=20.0),
        # the BENCH_engine 10k macro cell, 5x longer: every task admits locally
        Scale("scale_idle", nodes=10_000, load=0.5, queue=100.0, horizon=100.0),
        Live("live_inproc", "inproc", load_wall_s),
        Live("live_udp", "udp", load_wall_s),
    ]
    return {w.name: w for w in workloads}
