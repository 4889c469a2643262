"""The determinism contract as one table.

Figures 5-8 compare protocols on common random numbers, sound only while
the same seed gives a bit-identical run.  ``CELLS`` names every config
the contract is checked on, ``MODES`` every way of running one, and
``CONTRACTS`` holds the rows ``(id, cell, mode A, mode B, relation)``.
``observe`` simulates each (cell, mode) at most once per process;
``check`` compares one row's two runs and names the first divergence.
A mode may join names with ``+``: ``one_by_one+sliced(7)`` is the
one-event-per-delivery reference run in 7-event slices.

    PYTHONPATH=src python -m tests.contracts    # the coverage matrix
"""

from __future__ import annotations

import asyncio
import dataclasses
import tempfile
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Tuple

from repro.experiments.ablations import STUDIES
from repro.experiments.config import ExperimentConfig, paper_config
from repro.experiments.executor import execute_plan
from repro.experiments.plan import ExperimentPlan, grid_plan, sweep_plan
from repro.experiments.runner import build_system
from repro.live import LiveConfig, run_live
from repro.network.impairments import ImpairmentConfig
from repro.obs.config import ObsConfig
from repro.obs.profiler import KernelProfiler
from repro.obs.sinks import JsonLinesSink
from repro.protocols.base import ProtocolConfig
from repro.workload.attack import AttackConfig
from repro.workload.churn import ChurnConfig
from repro.workload.fleet import FleetConfig
from tests.oracles import group_sizes, post_one_by_one

#: admission-probability gap allowed between the live runtime and the
#: simulator (``approx``).  Inside the runtime's capacity the measured gap
#: is <= 0.004 even in deep overload (five runs at 4 000 tasks/s wall:
#: 0.6597-0.6647 against the simulator's 0.6637); 0.1 absorbs scheduler
#: jitter on a loaded CI machine without ever passing a broken runtime.
#: Past capacity the gap reaches 0.02-0.15: the runtime lagging, not
#: disagreeing.
TOLERANCE = 0.1

_MESH = ExperimentConfig(protocol="realtor", trace=True)
# load against a small queue keeps threshold crossings, HELP floods and
# migrations busy from the first second, so no trace is vacuously equal
_TORUS = _MESH.with_(topology="torus", queue_capacity=12.0)
_T250, _T2500 = (_TORUS.with_(nodes=n, arrival_rate=0.3 * n) for n in (250, 2500))
_LOSSY = ImpairmentConfig(loss_rate=0.02, jitter=0.001)
_WHOLE_OVERLAY = dict(protocol_config=ProtocolConfig(scope="network"), prime_views=False)
_CHAOS = _MESH.with_(
    arrival_rate=8.0, horizon=150.0, seed=5, migration_retry_budget=1,
    impairments=ImpairmentConfig(
        loss_rate=0.05, jitter=0.002, duplicate_rate=0.02, reorder_rate=0.02
    ),
)
_ATTACKS = ("none", "sweep", "region", "random")
_SWEEP = AttackConfig(kind="sweep", start=20.0)
_CHURN = _MESH.with_(
    arrival_rate=10.0, horizon=120.0, seed=42, fleet=FleetConfig.heterogeneous(),
    churn=ChurnConfig(join_rate=0.05, leave_rate=0.03),
)
_B5 = STUDIES["b5"]
_PAIR = ("realtor", "pure-push")

#: a cell is one config, or a plan whose cells run together
CELLS: Dict[str, object] = {
    "mesh": _MESH.with_(arrival_rate=6.0, horizon=120.0, seed=7),
    "mesh-attacked": _MESH.with_(arrival_rate=8.0, horizon=150.0, seed=5, attack=AttackConfig(
        kind="sweep", start=20.0, dwell=10.0, victims=6)),
    "mesh-sweep": sweep_plan(_PAIR, (4.0, 8.0), ExperimentConfig(horizon=80.0, seed=3)),
    "push-1": paper_config("push-1", 6.0, seed=4, horizon=40.0).with_(trace=True),
    "defaults": _MESH.with_(arrival_rate=8.0, horizon=120.0, seed=7),
    "churn": _CHURN,
    "churn-grid": grid_plan("churn", [
        (name, _CHURN.with_(trace=False, horizon=80.0, churn=ChurnConfig(
            join_rate=join, leave_rate=leave)))
        for name, join, leave in (("calm", 0.02, 0.01), ("stormy", 0.08, 0.06))
    ]),
    **{f"chaos-{kind}": _CHAOS.with_(attack=None if kind == "none" else AttackConfig(
        kind=kind, start=20.0, dwell=15.0, victims=5, duration=40.0, mtbf=120.0, mttr=20.0,
    )) for kind in _ATTACKS},
    "chaos": _CHAOS.with_(attack=_SWEEP),
    "chaos-clean": _CHAOS.with_(attack=_SWEEP, impairments=None),
    "b5": grid_plan(_B5.plan, _B5.cells(**{**_B5.params, "loss_rates": (0.0, 0.05, 0.15),
                                           "arrival_rate": 6.0, "horizon": 100.0, "seed": 3})),
    "torus-250": _T250.with_(horizon=20.0, seed=7),
    "torus-250-lossy": _T250.with_(horizon=20.0, seed=7, impairments=_LOSSY),
    "torus-250-s11": _T250.with_(horizon=10.0, seed=11),
    "torus-250-sweep": sweep_plan(_PAIR, (12.5, 25.0), ExperimentConfig(
        topology="torus", nodes=250, horizon=20.0, seed=3)),
    # per-hop latency: a flood posts one group per hop count
    "latency": _TORUS.with_(nodes=400, arrival_rate=120.0, horizon=2.0, seed=11,
                            per_hop_latency=0.01, **_WHOLE_OVERLAY),
    "torus-2500": _T2500.with_(horizon=4.0, seed=11),
    "torus-2500-lossy": _T2500.with_(horizon=4.0, seed=11, impairments=_LOSSY),
    # 2 499 receivers behind one agenda event
    "network": _T2500.with_(arrival_rate=250.0, queue_capacity=6.0, horizon=0.5, seed=11,
                            **_WHOLE_OVERLAY),
    "torus-2500-sweep": sweep_plan(_PAIR, (125.0,), ExperimentConfig(
        topology="torus", nodes=2500, horizon=2.0, seed=3)),
    # offered load 1.0: thresholds crossed and HELP rounds running from t ~ 4
    "churn-2500": _MESH.with_(
        topology="torus", nodes=2500, arrival_rate=500.0, horizon=10.0, seed=13,
        fleet=FleetConfig.heterogeneous(), churn=ChurnConfig(join_rate=1.0, leave_rate=0.6),
    ),
    # admission ~1.0, and deep overload: the curves compared flat and steep
    **{f"live-{load}": ExperimentConfig(
        protocol="realtor", nodes=25, arrival_rate=rate, horizon=horizon, seed=42,
    ) for load, rate, horizon in (("underload", 4.0, 30.0), ("overload", 100.0, 10.0))},
}

MODES: Dict[str, str] = {
    "run": "build and run to the horizon; a plan runs serially",
    "again": "the same from a second, independent build",
    "one_by_one": "every message its own agenda event (tests.oracles.post_one_by_one)",
    "sliced": "sliced(k): max_events=k slices up to a stop after the horizon's events",
    "profiled": "under a KernelProfiler",
    "obs": "observability on: ObsConfig()",
    "jsonl": "the trace streamed to a JSONL file",
    "parallel": "a plan through execute_plan(parallel=True, max_workers=2)",
    "other_seed": "seed + 1",
    "impairments_disabled": "impairments=ImpairmentConfig(), which enables nothing",
    "explicit_defaults": "headroom ranking, FleetConfig() and ChurnConfig() asked for",
    "live": "live(k): the live runtime, k virtual seconds per wall second",
}

#: relation -> (matrix mark, what must hold between mode A and mode B)
RELATIONS: Dict[str, Tuple[str, str]] = {
    "identical": ("=", "trace records, result fields and events_executed are equal"),
    "grouped": ("g", "trace and result are equal; B's events exceed A's by sum(group - 1)"),
    "trace": ("t", "trace records and events_executed are equal"),
    "bytes": ("b", "the JSONL streams are equal"),
    "obs": ("o", "trace and result are equal with the result's series removed"),
    "differs": ("x", "the two runs are not equal"),
    "approx": ("~", "equal generated counts, admission probabilities within TOLERANCE"),
}


class Contract(NamedTuple):
    id: str
    cell: str
    a: str
    b: str
    relation: str


CONTRACTS: Dict[str, Contract] = {row[0]: Contract(*row) for row in [
    ("mesh.again", "mesh", "run", "again", "identical"),
    ("mesh.other_seed", "mesh", "run", "other_seed", "differs"),
    ("mesh-attacked.again", "mesh-attacked", "run", "again", "identical"),
    ("mesh-sweep.parallel", "mesh-sweep", "run", "parallel", "identical"),
    ("push-1.one_by_one", "push-1", "run", "one_by_one", "grouped"),
    ("push-1.sliced", "push-1", "sliced(7)", "one_by_one+sliced(7)", "grouped"),
    ("defaults.explicit", "defaults", "run", "explicit_defaults", "trace"),
    ("churn.again", "churn", "run", "again", "identical"),
    ("churn.one_by_one", "churn", "run", "one_by_one", "grouped"),
    ("churn.obs", "churn", "run", "obs", "obs"),
    ("churn-grid.parallel", "churn-grid", "run", "parallel", "identical"),
    *((f"chaos-{k}.again", f"chaos-{k}", "run", "again", "identical") for k in _ATTACKS),
    ("chaos.other_seed", "chaos", "run", "other_seed", "differs"),
    ("chaos.obs", "chaos", "run", "obs", "obs"),
    ("chaos-clean.disabled", "chaos-clean", "run", "impairments_disabled", "identical"),
    ("b5.parallel", "b5", "run", "parallel", "identical"),
    ("torus-250.again", "torus-250", "run", "again", "identical"),
    ("torus-250.other_seed", "torus-250", "run", "other_seed", "differs"),
    ("torus-250-lossy.again", "torus-250-lossy", "run", "again", "identical"),
    ("torus-250-s11.profiled", "torus-250-s11", "profiled", "one_by_one", "grouped"),
    ("torus-250-sweep.parallel", "torus-250-sweep", "run", "parallel", "identical"),
    ("latency.one_by_one", "latency", "run", "one_by_one", "grouped"),
    ("latency.sliced", "latency", "sliced(97)", "one_by_one+sliced(97)", "grouped"),
    ("torus-2500.one_by_one", "torus-2500", "run", "one_by_one", "grouped"),
    ("torus-2500.jsonl", "torus-2500", "jsonl", "again+jsonl", "bytes"),
    ("torus-2500.obs", "torus-2500", "jsonl", "obs+jsonl", "bytes"),
    ("torus-2500-lossy.one_by_one", "torus-2500-lossy", "run", "one_by_one", "grouped"),
    ("network.one_by_one", "network", "run", "one_by_one", "grouped"),
    ("network.sliced", "network", "sliced(997)", "one_by_one+sliced(997)", "grouped"),
    ("torus-2500-sweep.parallel", "torus-2500-sweep", "run", "parallel", "identical"),
    ("churn-2500.one_by_one", "churn-2500", "run", "one_by_one", "grouped"),
    ("live-underload.live", "live-underload", "run", "live(200)", "approx"),
    ("live-overload.live", "live-overload", "run", "live(40)", "approx"),
]}


@dataclasses.dataclass(frozen=True)
class Observation:
    """One (cell, mode) run, as the relations and the guards read it."""

    records: tuple  # the TraceRecords
    result: object  # a RunResult; a plan's [(key, RunResult)]; the live report
    events: Optional[int] = None  # events_executed (None for a plan or a live run)
    groups: Tuple[int, ...] = ()  # messages per _deliver call; () one by one
    jsonl: Optional[bytes] = None
    facts: Dict[str, object] = dataclasses.field(default_factory=dict)


def _parse(mode: str) -> Dict[str, Optional[int]]:
    parts = {}
    for part in mode.split("+"):
        name, _, arg = part.rstrip(")").partition("(")
        if name not in MODES:
            raise KeyError(f"unknown mode {part!r} in {mode!r}")
        parts[name] = int(arg) if arg else None
    return parts


#: (cell, mode) -> its observation, shared by every test in the process on
#: purpose: one simulation per pair.  Guards read observations, never write.
_OBSERVED: Dict[Tuple[str, str], Observation] = {}


def observe(cell: str, mode: str = "run") -> Observation:
    """``cell`` run in ``mode``, simulated at most once per process."""
    if (cell, mode) not in _OBSERVED:
        _OBSERVED[cell, mode] = _simulate(CELLS[cell], _parse(mode))
    return _OBSERVED[cell, mode]


def _simulate(cfg, parts: Dict[str, Optional[int]]) -> Observation:
    if isinstance(cfg, ExperimentPlan):
        results = execute_plan(cfg, parallel="parallel" in parts, max_workers=2)
        return Observation((), list(results.items()))
    if "live" in parts:
        return Observation((), asyncio.run(run_live(LiveConfig(
            nodes=cfg.nodes, arrival_rate=cfg.arrival_rate, horizon=cfg.horizon,
            seed=cfg.seed, time_scale=float(parts["live"]), latency=0.0, drain_timeout=60.0,
        ))))
    if "obs" in parts:
        cfg = cfg.with_(obs=ObsConfig())
    if "other_seed" in parts:
        cfg = cfg.with_(seed=cfg.seed + 1)
    if "impairments_disabled" in parts:
        cfg = cfg.with_(impairments=ImpairmentConfig())
    if "explicit_defaults" in parts:
        cfg = cfg.with_(protocol_config=cfg.protocol_config.with_(ranking_policy="headroom"),
                        fleet=FleetConfig(), churn=ChurnConfig())
    system = build_system(cfg)
    sim = system.sim
    if "one_by_one" in parts:
        post_one_by_one(system.transport)
        groups = []
    else:
        groups = group_sizes(system.transport)
    profile = KernelProfiler() if "profiled" in parts else None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        if "jsonl" in parts:
            sim.trace.add_sink(JsonLinesSink(path, buffer_records=4096))
        if "sliced" in parts:
            sim.at(cfg.horizon, sim.stop, priority=1 << 30)  # after all else at the horizon
            while sim.queue.peek_time() is not None and sim.queue.peek_time() <= cfg.horizon:
                before = sim.events_executed
                sim.run(max_events=parts["sliced"])
                # max_events counts agenda events: a slice runs whole groups
                assert sim.now == cfg.horizon or sim.events_executed - before == parts["sliced"]
        else:
            system.run(profile=profile)
        result = system.result()
        sim.trace.close_sinks()
        jsonl = path.read_bytes() if "jsonl" in parts else None
    return Observation(tuple(sim.trace.records), result, sim.events_executed, tuple(groups),
                       jsonl, facts={
        "impairments_installed": system.transport.impairments is not None,
        "snapshots_seen": system.recorder.snapshots_seen if system.recorder else 0,
        "profiled_events": profile.report().events_executed if profile else None,
    })


def _equal(x, y, what: str, label: str) -> None:
    """Assert ``x == y``; else name the first differing item or fields."""
    if x == y:
        return
    if dataclasses.is_dataclass(x):
        x, y = dataclasses.asdict(x), dataclasses.asdict(y)
    if isinstance(x, dict):
        where = f"fields {sorted(k for k in x.keys() | y.keys() if x.get(k) != y.get(k))}"
    elif isinstance(x, (list, tuple)):
        where = next((f"item {i}: {p!r} != {q!r}" for i, (p, q) in enumerate(zip(x, y))
                      if p != q), f"length {len(x)} != {len(y)}")
    else:
        where = f"{x!r} != {y!r}"
    raise AssertionError(f"{label}: {what} differ at {where}")


def check(row_id: str) -> Tuple[Observation, Observation]:
    """Check one row of ``CONTRACTS``; return its two observations for the
    caller's guards."""
    row = CONTRACTS[row_id]
    a, b = observe(row.cell, row.a), observe(row.cell, row.b)
    label, relation = f"{row.id} ({row.a} vs {row.b})", row.relation
    if relation in ("identical", "grouped", "trace", "obs"):
        _equal(a.records, b.records, "traces", label)
    if relation in ("identical", "grouped"):
        _equal(a.result, b.result, "results", label)
        assert a.result, f"{label}: nothing ran"
    if relation in ("identical", "trace"):
        _equal(a.events, b.events, "events_executed", label)
    if relation == "grouped":
        _equal(b.events - a.events, sum(n - 1 for n in a.groups),
               "events saved and sum(group - 1)", label)
    elif relation == "obs":
        _equal(*(dataclasses.replace(r, series=None) for r in (a.result, b.result)),
               "results", label)
    elif relation == "bytes":
        assert a.jsonl and b.jsonl, f"{label}: a JSONL stream is empty"
        _equal(a.jsonl.splitlines(), b.jsonl.splitlines(), "JSONL lines", label)
    elif relation == "differs":
        assert (a.records, a.result) != (b.records, b.result), f"{label}: the runs are equal"
    elif relation == "approx":
        sim, live = a.result, b.result
        _equal(sim.generated, live["tasks"]["generated"], "generated counts", label)
        gap = abs(live["admission_probability"] - sim.admission_probability)
        assert gap <= TOLERANCE, f"{label}: admission probabilities differ by {gap:.4f}"
    elif relation not in RELATIONS:
        raise KeyError(f"unknown relation {relation!r}")
    return a, b


def matrix() -> str:
    """The coverage matrix (a line per cell, a column per mode, marked with
    the relation of each row that runs the cell in that mode), the legend
    and the rows."""
    columns = [mode for mode in MODES if mode != "run"]
    marks: Dict[Tuple[str, str], set] = {}
    for row in CONTRACTS.values():
        for mode in (_parse(row.a).keys() | _parse(row.b).keys()) - {"run"}:
            marks.setdefault((row.cell, mode), set()).add(RELATIONS[row.relation][0])
    width, id_width = max(map(len, CELLS)), max(map(len, CONTRACTS))
    return "\n".join([
        " ".join([f"{'cell':<{width}}", *columns]),
        *(" ".join([f"{cell:<{width}}", *(
            f"{''.join(sorted(marks.get((cell, mode), '.'))):<{len(mode)}}" for mode in columns
        )]).rstrip() for cell in CELLS),
        "", *(f"{mark} {name}: {doc}" for name, (mark, doc) in RELATIONS.items()), "",
        *(f"{row.id:<{id_width}} {row.a} vs {row.b}: {row.relation}"
          for row in CONTRACTS.values()),
    ])


if __name__ == "__main__":
    print(matrix())
