"""Ablation studies (A1-A8, B1-B5 in DESIGN.md) as one table.

The paper leaves several design choices open ("the value of alpha and
beta are subject to the local resource manager"; the membership scope;
the one-shot migration policy; Section 7's inter-community future work).
Each study isolates one choice, holding the paper workload fixed.

A study is a row of :data:`STUDIES`: its default parameters (the swept
axis first), a cell builder that enumerates the axis as ``(key,
config)`` items, and the columns of its table.
:func:`run_study` is the one executor: it expands the items with
:func:`~repro.experiments.plan.grid_plan` and runs them through the
shared :func:`~repro.experiments.executor.execute_plan` — so every study
gets process-pool dispatch (``parallel=``) and content-addressed
caching/resume (``store=``, ``force=``) without any machinery of its own.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional
from typing import TYPE_CHECKING, Tuple, Union

from ..analysis.report import format_table
from ..metrics.collector import RunResult
from ..network.impairments import ImpairmentConfig
from ..protocols.base import ProtocolConfig
from ..workload.attack import AttackConfig
from ..workload.churn import ChurnConfig
from ..workload.fleet import FleetConfig
from .config import ExperimentConfig, paper_config
from .executor import execute_plan
from .plan import grid_plan
from .store import canonical_rate

if TYPE_CHECKING:  # pragma: no cover
    from .store import RunStore

__all__ = ["AblationResult", "Study", "STUDIES", "METRICS", "run_study"]


@dataclass
class AblationResult:
    """Rows + a rendered table for one ablation."""

    name: str
    headers: List[str]
    rows: List[List[object]]
    raw: Dict[object, RunResult] = field(default_factory=dict)

    @property
    def table(self) -> str:
        return format_table(self.headers, self.rows)

    def summary(self) -> str:
        return f"=== {self.name} ===\n{self.table}"


def _per_node_s(count: float, r: RunResult) -> float:
    return count / (r.params["nodes"] * r.params["horizon"])


#: column header -> how to read that column off one run
METRICS: Dict[str, Callable[[RunResult], object]] = {
    "lambda": lambda r: r.params["lambda"],
    "protocol": lambda r: r.params["protocol"],
    "P(admit)": lambda r: r.admission_probability,
    "mig-rate": lambda r: r.migration_rate,
    "messages": lambda r: r.messages_total,
    "weighted-msgs": lambda r: r.messages_total,
    "msg/task": lambda r: r.messages_per_admitted,
    "weighted/node/s": lambda r: _per_node_s(r.messages_total, r),
    "delivered/node/s": lambda r: _per_node_s(r.extra["delivered_messages"], r),
    "help-interval": lambda r: (
        r.help_interval_mean if r.help_interval_mean is not None else "-"
    ),
    "response-mean": lambda r: r.response_time_mean,
    "staleness": lambda r: r.extra.get("view_staleness", 0.0),
    "miss": lambda r: r.extra.get("deadline_miss_rate", 0.0),
    "misrank": lambda r: r.extra.get("misrank_rate", 0.0),
    "fb-depth": lambda r: r.extra.get("fallback_depth_mean", 0.0),
    "evacuations": lambda r: r.evacuations,
    "evac-success": lambda r: (
        (r.evacuations - r.evacuation_failures) / r.evacuations
        if r.evacuations else 1.0
    ),
    "tasks-lost": lambda r: r.lost,
    "msgs-dropped": lambda r: r.extra.get("impairment_dropped", 0.0),
    "help-retries": lambda r: r.extra.get("help_retries", 0.0),
    "fallbacks": lambda r: r.extra.get("migration_fallbacks", 0.0),
}


@dataclass(frozen=True)
class Study:
    """One ablation: what it sweeps, what it runs, what it tabulates.

    ``cells`` is the study's definition: its keyword defaults are the
    study's parameters (the swept axis first), its docstring the
    rationale, and called with the parameters it yields the ``(key,
    config)`` items.  A plain table has one row per cell: the
    leading ``len(labels)`` components of the cell key, then one
    :data:`METRICS` column per name in ``columns``.  With ``pivot`` set
    the cells are keyed ``(series, rate)`` and the table has one row per
    rate with, per series, one column for each ``(header template,
    metric)`` pair.
    """

    key: str  #: CLI target, e.g. ``"a1"``
    plan: str  #: plan name the cells are recorded under
    title: Union[str, Callable[[Mapping[str, object]], str]]
    cells: Callable[..., Iterable[tuple]]
    labels: Tuple[str, ...]
    columns: Tuple[str, ...] = ()
    pivot: Tuple[Tuple[str, str], ...] = ()

    @property
    def doc(self) -> str:
        """Why the study exists and what it should show."""
        return inspect.getdoc(self.cells) or ""

    @property
    def params(self) -> Dict[str, object]:
        """Every parameter with its default."""
        signature = inspect.signature(self.cells)
        return {name: p.default for name, p in signature.parameters.items()}

    def table(
        self, results: Mapping[tuple, RunResult]
    ) -> Tuple[List[str], List[List[object]]]:
        """Headers and rows for results keyed by cell, in cell order."""
        if not self.pivot:
            shown = len(self.labels)
            return [*self.labels, *self.columns], [
                [*key[:shown], *(METRICS[c](res) for c in self.columns)]
                for key, res in results.items()
            ]
        series = dict.fromkeys(key[0] for key in results)
        by_rate: Dict[object, List[object]] = {}
        for (_, rate), res in results.items():
            by_rate.setdefault(rate, [rate]).extend(
                METRICS[metric](res) for _, metric in self.pivot
            )
        headers = [t.format(s) for s in series for t, _ in self.pivot]
        return [*self.labels, *headers], list(by_rate.values())


# Cell builders: one per study ---------------------------------------------


def _a1_cells(pairs=((0.5, 0.5), (1.0, 0.25), (1.5, 0.2), (2.0, 0.1)),
              arrival_rate=8.0, horizon=2_000.0, seed=1, protocol="realtor"):
    """A1: Algorithm H reward/penalty — overhead vs effectiveness trade."""
    for alpha, beta in pairs:
        yield (alpha, beta), paper_config(
            protocol, arrival_rate, seed=seed, horizon=horizon,
            protocol_config=ProtocolConfig(alpha=alpha, beta=beta),
        )


def _a2_cells(thresholds=(0.5, 0.7, 0.8, 0.9, 0.95), arrival_rate=6.0,
              horizon=2_000.0, seed=1, protocol="realtor"):
    """A2: availability threshold — earlier discovery vs pledge churn."""
    for thr in thresholds:
        yield thr, paper_config(
            protocol, arrival_rate, seed=seed, horizon=horizon,
            protocol_config=ProtocolConfig(threshold=thr),
        )


def _mesh_at_load(protocol, rows, cols, load, task_mean, horizon, seed):
    """A ``rows x cols`` mesh whose arrival rate keeps offered load at ``load``."""
    # n first: load * rows * cols / task_mean re-associates the float
    # product and would move every recorded A3 digest
    n = rows * cols
    return ExperimentConfig(
        protocol=protocol, arrival_rate=load * n / task_mean, task_mean=task_mean,
        rows=rows, cols=cols, horizon=horizon, seed=seed,
        unicast_cost="hops",  # fixed-4 would misprice larger meshes
    )


def _a3_cells(sizes=((3, 3), (5, 5), (7, 7), (10, 10)), load=1.2, task_mean=5.0,
              horizon=2_000.0, seed=1, protocol="realtor"):
    """A3: per-node overhead vs system size at constant offered load.

    The paper's scalability claim: REALTOR's overhead "is system-size
    independent" — the per-node, per-second weighted message cost should
    be flat as the mesh grows (floods cost #links, which grows, but their
    *frequency* per node is load-driven, and pledges stay local).
    """
    for rows, cols in sizes:
        yield rows * cols, _mesh_at_load(
            protocol, rows, cols, load, task_mean, horizon, seed
        )


def _a4_cells(victims_list=(0, 2, 5, 10), arrival_rate=4.0, horizon=2_000.0,
              dwell=100.0, seed=1, protocol="realtor"):
    """A4: attack survivability — sweep-attack severity vs outcomes.

    An attacker compromises ``victims`` nodes in sequence (dwell time
    each); components evacuate via the discovery protocol.  Reported:
    admission probability, evacuation success rate, tasks lost.
    """
    cfg = paper_config(protocol, arrival_rate, seed=seed, horizon=horizon)
    for victims in victims_list:
        yield victims, cfg.with_(attack=AttackConfig(
            kind="sweep", start=horizon * 0.25, dwell=dwell, victims=victims,
        ) if victims > 0 else None)


def _a5_cells(policies=("one-shot", "2-try", "3-try", "random"), arrival_rate=7.0,
              horizon=2_000.0, seed=1, protocol="realtor"):
    """A5: one-shot vs k-try vs random-target migration."""
    base = paper_config(protocol, arrival_rate, seed=seed, horizon=horizon)
    for pol in policies:
        yield pol, base.with_(policy=pol)


def _a6_cells(protocols=("realtor", "realtor-hier", "realtor-hier-25"), rows=10,
              cols=10, load=1.2, task_mean=5.0, horizon=1_000.0, seed=1):
    """A6: the Section 7 future-work extension — inter-neighbour-group
    discovery on a large mesh.

    Flat REALTOR floods its neighbourhood on every qualifying arrival; the
    hierarchical variant keeps HELPs inside small groups and escalates
    through gateways only when the group is exhausted.  At equal offered
    load the hierarchy should hold admission probability while cutting
    weighted message cost by a large factor.
    """
    for proto in protocols:
        yield proto, _mesh_at_load(proto, rows, cols, load, task_mean, horizon, seed)


_A7_SCENARIOS = {
    "cpu-only": {},
    "bandwidth": dict(
        extra_resources=(("bandwidth", 100.0),),
        demand_means=(("bandwidth", 10.0),),
    ),
    "security": dict(security_levels=(0.0, 1.0), secure_task_fraction=0.3),
}


def _a7_cells(rates=(4.0, 5.0, 6.0, 7.0, 8.0), horizon=1_000.0, seed=1,
              protocol="realtor"):
    """A7: footnote 3 — "more general resource scenarios such as network
    bandwidth, current security level, etc., would give similar results".

    Three scenarios at each arrival rate: CPU only (the paper's), CPU +
    a consumable bandwidth demand, and CPU + security levels (half the
    hosts run at level 1, 30% of tasks require it).  "Similar results"
    means the curve *shapes* agree: flat until a knee, then monotone
    decline; absolute levels shift with how constraining the extra
    resource is.
    """
    for rate in rates:
        base = paper_config(protocol, rate, seed=seed, horizon=horizon)
        for name, extra in _A7_SCENARIOS.items():
            yield (name, rate), base.with_(**extra)


def _a8_cells(rates=(3.0, 4.0, 5.0, 6.0, 7.0), deadline_factor=10.0,
              horizon=1_000.0, seed=1, protocols=("realtor", "pull-100")):
    """A8: QoS degradation — deadline miss rate vs load.

    Section 2's motivation: "overload situations are particularly
    problematic for QoS sensitive applications, which do not degrade
    gracefully with decreasing amount of available resources."  Tasks
    carry relative deadlines of ``deadline_factor x size``; the miss rate
    collapses far earlier and far faster than admission probability —
    admission alone understates overload damage.
    """
    for rate in rates:
        for proto in protocols:
            cfg = paper_config(proto, rate, seed=seed, horizon=horizon)
            yield (proto, rate), cfg.with_(deadline_factor=deadline_factor)


def _b1_cells(rates=(5.0, 6.0, 7.0, 8.0), horizon=1_000.0, seed=1,
              protocols=("none", "gossip", "gossip-5", "realtor", "push-.9")):
    """B1: beyond-paper baselines — the no-migration floor and
    SWIM-style push-pull gossip (the protocol family that, post-2003,
    became the standard answer to this problem: Serf, memberlist,
    Consul).

    Three questions in one table: how much is migration worth at all
    (any protocol vs ``none``); how much does *discovery quality* matter
    (the spread among real protocols); and how does 1970s-style
    anti-entropy compare with REALTOR's demand-driven design on cost.
    """
    for rate in rates:
        for proto in protocols:
            yield (proto, rate), paper_config(proto, rate, seed=seed, horizon=horizon)


def _b2_cells(topologies=("mesh", "torus", "ring", "tree", "full"), arrival_rate=6.0,
              horizon=1_000.0, seed=1, protocol="realtor"):
    """B2: overlay-shape sensitivity.

    Neighbour-scoped discovery lives and dies by connectivity: a ring
    (degree 2) gives each node two candidates, the torus four, the full
    mesh twenty-four.  Same 25 nodes, same workload, different overlay.
    """
    for topo in topologies:
        yield topo, ExperimentConfig(
            protocol=protocol, arrival_rate=arrival_rate, topology=topo,
            rows=5, cols=5, horizon=horizon, seed=seed, unicast_cost="hops",
        )


def _b3_cells(latencies=(0.0, 0.001, 0.01, 0.1, 1.0), arrival_rate=7.0,
              horizon=1_000.0, seed=1, protocol="realtor"):
    """B3: message-latency sensitivity.

    The paper's simulation treats dissemination as instantaneous.  Here
    per-hop latency is swept from 0 to a full second: until latency
    approaches the task-size scale (~5 s), the curves barely move —
    validating the zero-latency simplification — and beyond that, stale
    one-shot migrations begin to fail.
    """
    base = paper_config(protocol, arrival_rate, seed=seed, horizon=horizon)
    for latency in latencies:
        yield latency, base.with_(per_hop_latency=latency)


def _b4_cells(policies=("headroom", "latency", "reliability", "composite"),
              arrival_rate=9.0, horizon=2_000.0, seed=1, protocol="realtor",
              heterogeneous=True, churn_rate=0.02):
    """B4: candidate-ranking policies under a heterogeneous, churning fleet.

    The comparison the ranking seam exists for: headroom (the paper)
    vs latency / reliability / Dubey-Tokekar composite scoring, with
    common random numbers across policies (same arrivals, same fleet
    draws, same churn schedule — only the candidate ordering differs).
    Survivability columns (admission probability, mis-rank rate) sit
    next to message cost so the overhead of a smarter ranking is
    visible in the same table.
    """
    base = paper_config(protocol, arrival_rate, seed=seed, horizon=horizon)
    if heterogeneous:
        base = base.with_(fleet=FleetConfig.heterogeneous())
    if churn_rate > 0:
        base = base.with_(
            churn=ChurnConfig(join_rate=churn_rate, leave_rate=churn_rate)
        )
    for policy in policies:
        yield policy, base.with_(
            protocol_config=base.protocol_config.with_(ranking_policy=policy)
        )


def _b4_title(p: Mapping[str, object]) -> str:
    fleet = "heterogeneous" if p["heterogeneous"] else "uniform"
    return (f"B4 ranking policy (lambda={p['arrival_rate']:g}, fleet={fleet}, "
            f"churn={p['churn_rate']:g}/s)")


def _b5_cells(loss_rates=(0.0, 0.02, 0.05, 0.10, 0.20), arrival_rate=8.0,
              horizon=250.0, seed=7, protocol="realtor"):
    """B5: graceful degradation — per-link message loss under a sweep attack.

    The survivability studies attack *nodes*; this one also attacks
    *messages*.  The same seeded sweep attack (4 victims from t=40 s,
    25 s each) runs on a network that jitters and duplicates deliveries,
    across per-link loss rates from a clean baseline to a harsh 20%,
    with the hardening knobs on: HELP retry/backoff and silent-migration
    fallback (budget 2 each).  Admission should degrade
    gracefully, not collapse, while the dropped-message, HELP-retry and
    fallback columns show the protocol layer fighting back.
    """
    base = paper_config(protocol, arrival_rate, seed=seed, horizon=horizon)
    base = base.with_(
        attack=AttackConfig(kind="sweep", start=40.0, dwell=25.0, victims=4),
        protocol_config=base.protocol_config.with_(help_retry_budget=2),
        migration_retry_budget=2,
    )
    for loss in map(canonical_rate, loss_rates):
        yield loss, base.with_(impairments=ImpairmentConfig(
            loss_rate=loss, jitter=0.005, duplicate_rate=0.01,
        ))


_DISCOVERY = ("P(admit)", "mig-rate", "messages", "msg/task")

STUDIES: Dict[str, Study] = {s.key: s for s in (
    Study("a1", "A1-alpha-beta", "A1 alpha/beta (lambda={arrival_rate:g})",
          _a1_cells, ("alpha", "beta"),
          ("P(admit)", "messages", "msg/task", "help-interval")),
    Study("a2", "A2-threshold", "A2 threshold (lambda={arrival_rate:g})",
          _a2_cells, ("threshold",), _DISCOVERY),
    Study("a3", "A3-scalability", "A3 scalability (offered load {load:g})",
          _a3_cells, ("nodes",),
          ("lambda", "P(admit)", "weighted-msgs", "weighted/node/s",
           "delivered/node/s")),
    Study("a4", "A4-attack",
          "A4 attack survivability (lambda={arrival_rate:g}, dwell={dwell:g}s)",
          _a4_cells, ("victims",),
          ("P(admit)", "evacuations", "evac-success", "tasks-lost")),
    Study("a5", "A5-retry-policy", "A5 migration policy (lambda={arrival_rate:g})",
          _a5_cells, ("policy",), _DISCOVERY),
    Study("a6", "A6-inter-community",
          "A6 inter-community discovery ({rows}x{cols} mesh, load {load:g})",
          _a6_cells, ("protocol",), _DISCOVERY),
    Study("a7", "A7-multi-resource",
          "A7 multi-resource scenarios (admission probability)",
          _a7_cells, ("lambda",), pivot=(("{}", "P(admit)"),)),
    Study("a8", "A8-qos",
          "A8 QoS: deadline miss rate (deadline = {deadline_factor:g} x size)",
          _a8_cells, ("lambda",),
          pivot=(("P({})", "P(admit)"), ("miss({})", "miss"))),
    # B1's rows lead with the rate but its cell keys with the protocol, so
    # both columns are read off the run and no key component is shown
    Study("b1", "B1-modern-baselines",
          "B1 modern baselines (no-migration floor, gossip vs REALTOR)",
          _b1_cells, (),
          ("lambda", "protocol", "P(admit)", "messages", "staleness")),
    Study("b2", "B2-topology",
          "B2 topology sensitivity (lambda={arrival_rate:g}, 25 nodes)",
          _b2_cells, ("topology",),
          ("P(admit)", "mig-rate", "messages", "staleness")),
    Study("b3", "B3-latency", "B3 per-hop latency (lambda={arrival_rate:g})",
          _b3_cells, ("latency-s",), ("P(admit)", "mig-rate", "response-mean")),
    Study("b4", "B4-ranking", _b4_title, _b4_cells, ("policy",),
          ("P(admit)", "mig-rate", "msg/task", "misrank", "fb-depth")),
    Study("b5", "B5-message-loss",
          "B5 message loss under a sweep attack (lambda={arrival_rate:g}, "
          "retry budgets 2)",
          _b5_cells, ("loss",),
          ("P(admit)", "tasks-lost", "msgs-dropped", "help-retries", "fallbacks")),
)}


def run_study(
    key: str,
    *,
    store: Optional["RunStore"] = None,
    parallel: bool = False,
    force: bool = False,
    **overrides: object,
) -> AblationResult:
    """Run study ``key`` of :data:`STUDIES` with ``overrides`` on its params."""
    study = STUDIES[key]
    defaults = study.params
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise TypeError(f"study {key!r} has no parameter {unknown}; "
                        f"it takes: {', '.join(defaults)}")
    params = {**defaults, **overrides}
    plan = grid_plan(study.plan, study.cells(**params))
    results = execute_plan(plan, store=store, parallel=parallel, force=force)
    headers, rows = study.table(results)
    title = study.title
    title = title(params) if callable(title) else title.format(**params)
    raw = {key[0] if len(key) == 1 else key: res for key, res in results.items()}
    return AblationResult(title, headers, rows, raw)
