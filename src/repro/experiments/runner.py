"""System assembly, for both runtimes, and single-run execution.

The one place under ``src/`` that wires the per-node stack
(``node_params -> Host -> ProtocolContext -> agent -> AdmissionControl``),
the migration coordinator, the workload and the registry probes.
:func:`assemble` takes the two things that differ between the runtimes
as arguments: :func:`build_system` passes the discrete-event kernel and
:class:`~repro.network.transport.Transport`,
:class:`~repro.live.runtime.LiveRuntime` its wall-clock scheduler and
:class:`~repro.live.transport.LiveTransport` with its two wire
arguments bound — every other transport argument is spelled once, here.
:meth:`System.add_node` builds a churn joiner with the per-node builder
the t=0 loop uses.

:func:`run_experiment` drives a simulated system to the horizon and
returns the :class:`~repro.metrics.collector.RunResult`; the assembled
:class:`System` is exposed for tests and examples that poke at
internals mid-run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..metrics.collector import MetricsCollector, RunResult
from ..migration.admission import AdmissionControl
from ..migration.migrator import MigrationCoordinator
from ..migration.policy import make_policy
from ..network import generators
from ..network.faults import FaultManager
from ..network.impairments import NetworkImpairments
from ..network.topology import Topology
from ..network.transport import CostModel, Transport, UnicastCostMode
from ..node.host import Host
from ..node.state_arrays import NodeStateArrays
from ..node.task import Task
from ..obs.recorder import FlightRecorder, cell_identity
from ..obs.registry import MetricsRegistry, install_run_probes
from ..protocols.base import DiscoveryAgent, ProtocolContext
from ..protocols.registry import make_agent
from ..sim.kernel import Simulator
from ..sim.trace import Tracer
from ..workload.arrivals import ArrivalGenerator, DeterministicArrivals, PoissonArrivals
from ..workload.churn import poisson_churn
from ..workload.fleet import NodeParams, fleet_summary, node_params
from ..workload.sizes import ExponentialSizes
from .config import ExperimentConfig

__all__ = ["System", "assemble", "build_system", "run_experiment"]


def _build_topology(cfg: ExperimentConfig) -> Topology:
    n, kind = cfg.num_nodes, cfg.topology
    if cfg.nodes is None and kind == "mesh":
        return generators.mesh(cfg.rows, cfg.cols)
    if cfg.nodes is None and kind == "torus":
        return generators.torus(cfg.rows, cfg.cols)
    sized = {
        "ring": generators.ring, "star": generators.star,
        "full": generators.full_mesh, "tree": generators.heap_tree,
    }
    if kind in sized:
        return sized[kind](n)
    # mesh | torus by node count (most nearly square), random, scale-free;
    # ExperimentConfig already checked the name
    return generators.scenario_topology(kind, n, degree=4, seed=cfg.topology_seed)


def _build_pool(cfg: ExperimentConfig, node_id: int, scale: float = 1.0):
    """Per-host resource pool for the multi-resource extension, or None.

    ``scale`` is the fleet's per-node resource multiplier: consumable
    capacities scale with it, LEVEL resources (security) do not — a
    bigger machine has more bandwidth, not a higher clearance.
    """
    if not cfg.extra_resources and not cfg.security_levels:
        return None
    from ..node.resources import ResourceKind, ResourcePool, ResourceSpec

    pool = ResourcePool()
    for name, capacity in cfg.extra_resources:
        pool.declare(ResourceSpec(name, capacity * scale))
    if cfg.security_levels:
        level = cfg.security_levels[node_id % len(cfg.security_levels)]
        pool.declare(ResourceSpec("security", level, ResourceKind.LEVEL))
    return pool


def cost_model(cfg: ExperimentConfig) -> CostModel:
    """The message-charging parameters ``cfg`` asks for."""
    return CostModel(
        unicast_mode=UnicastCostMode(cfg.unicast_cost),
        fixed_unicast_cost=cfg.fixed_unicast_cost,
        flood_cost_override=cfg.flood_cost_override,
    )


@dataclass
class System:
    """A fully wired system, ready to run.

    The annotations name the simulator's classes; the live runtime holds
    the same dataclass around its own scheduler and transport (the
    :mod:`repro.runtime.api` seam) and drives it itself — :meth:`run`
    and :meth:`result` read the discrete-event kernel.
    """

    cfg: ExperimentConfig
    sim: Simulator
    topo: Topology
    faults: FaultManager
    transport: Transport
    metrics: MetricsCollector
    #: shared numpy mirror of per-node queue/monitor/liveness state;
    #: hosts built at t=0 write through, later joiners do not (their
    #: scalar state remains authoritative either way)
    state: NodeStateArrays
    #: every node that ever existed, t=0 nodes then joiners.  ONE list:
    #: each ``ProtocolContext.all_nodes`` and the random policy hold this
    #: object (per-agent copies are O(V^2) memory), so an appended joiner
    #: is at once a network-scope gossip peer and a random-policy target.
    all_nodes: List[int]
    hosts: Dict[int, Host] = field(default_factory=dict)
    agents: Dict[int, DiscoveryAgent] = field(default_factory=dict)
    admissions: Dict[int, AdmissionControl] = field(default_factory=dict)
    #: set by :func:`assemble` once every node exists
    coordinator: MigrationCoordinator = field(init=False)
    generator: ArrivalGenerator = field(init=False)
    #: run-wide metrics registry + flight recorder, installed only when
    #: ``cfg.obs`` enables them (None keeps the run byte-identical)
    registry: Optional[MetricsRegistry] = None
    recorder: Optional[FlightRecorder] = None
    #: materialised per-node fleet parameters (None for a uniform fleet);
    #: joiners drawn mid-run are appended so the spread summary covers
    #: every node that ever existed
    fleet_params: Optional[Dict[int, NodeParams]] = None
    #: continuous-churn accounting (see the runner's churn installer)
    churn_joins: int = 0
    churn_leaves: int = 0
    churn_skipped: int = 0
    churn_scheduled: int = 0

    def run(self, until: Optional[float] = None, *, profile=None) -> float:
        """Drive the kernel to the horizon.

        ``profile`` takes a :class:`~repro.obs.profiler.KernelProfiler`:
        the kernel times each dispatch of the same cohort-batched loop,
        and wall time and event counts land in the profiler, per
        callback and subsystem.  The run is bit-identical either way.
        """
        return self.sim.run(
            until=until if until is not None else self.cfg.horizon, profile=profile
        )

    def settle(self, now: Optional[float] = None) -> None:
        """Retire every task due by ``now`` (default: the clock) on every
        host, so the completion counts read as of that instant.

        Queues retire lazily, when they are next touched; a result or a
        sample that reads the counts calls this first.  The mirrored
        ``next_completion`` column names the t=0 hosts with a task due,
        so a registry tick does not call 10 000 queues to find a few.
        """
        t = self.sim.now if now is None else now
        state, hosts = self.state, self.hosts
        for slot in np.flatnonzero(state.next_completion <= t):
            hosts[state.ids[slot]].queue.retire(t)
        for joiner in self.all_nodes[len(state.ids):]:  # no slot to mirror into
            hosts[joiner].queue.retire(t)

    def _build_node(self, node_id: int) -> None:
        """The full per-node stack, for a t=0 node and a joiner alike.

        A node draws its fleet parameters from its own named stream
        (seeded by name, not by creation order), so they do not depend
        on when it is built — part of the churn determinism contract.
        """
        cfg, sim, faults = self.cfg, self.sim, self.faults
        params = node_params(
            cfg.fleet,
            sim.streams,
            node_id,
            default_capacity=cfg.queue_capacity,
            default_threshold=cfg.protocol_config.threshold,
        )
        if self.fleet_params is not None:
            self.fleet_params[node_id] = params
        host = Host(
            sim,
            node_id,
            capacity=params.capacity,
            threshold=params.threshold,
            pool=_build_pool(cfg, node_id, params.resource_scale),
            on_complete=self.metrics.task_completed,
            speed=params.speed,
        )
        if node_id in self.state.index:  # a joiner has no slot
            host.bind_state(self.state)

        def is_up() -> bool:
            return faults.is_up(node_id)

        agent = make_agent(
            cfg.protocol,
            ProtocolContext(
                sim=sim,
                transport=self.transport,
                host=host,
                config=cfg.protocol_config,
                all_nodes=self.all_nodes,
                is_safe=is_up,
            ),
        )
        self.hosts[node_id] = host
        self.agents[node_id] = agent
        self.admissions[node_id] = AdmissionControl(
            sim,
            self.transport,
            host,
            on_request_observed=(
                agent.pledges.observe_request if agent.pledges is not None else None
            ),
            accepting=is_up,
        )
        agent.start()

    # Churn (nodes joining/leaving the live system) ---------------------

    def add_node(self, node_id: int, attach_to: Optional[List[int]] = None) -> None:
        """A fresh host joins the overlay mid-run.

        The newcomer links to ``attach_to`` (default: the lowest-id live
        node), gets the full per-node stack, and discovers the rest of
        the system purely through its protocol — its view starts empty.
        """
        if self.topo.has_node(node_id):
            raise ValueError(f"node already present: {node_id}")
        peers = attach_to if attach_to else self.faults.up_nodes()[:1]
        if not peers:
            raise RuntimeError("no live node to attach to")
        self.topo.add_node(node_id)
        for peer in peers:
            self.topo.add_link(node_id, peer)
        # before the build: a starting agent sizes its phase by the list
        self.all_nodes.append(node_id)
        self._build_node(node_id)
        self.sim.trace.emit(self.sim.now, "join", node=node_id, peers=list(peers))

    def remove_node(self, node_id: int, *, graceful: bool = True) -> None:
        """A host leaves.  ``graceful`` evacuates queued components first
        (voluntary leave); otherwise resident work is lost (crash)."""
        if node_id not in self.hosts:
            raise KeyError(f"no such node: {node_id}")
        if graceful:
            # evacuation uses the compromise path: the node stops taking
            # work and moves its components, then falls silent
            self.faults.compromise(node_id)
            self.faults.crash(node_id)
        else:
            self.faults.crash(node_id)
        self.sim.trace.emit(self.sim.now, "leave", node=node_id, graceful=graceful)

    def mean_help_interval(self) -> Optional[float]:
        """Average Algorithm H interval across agents, if they run it."""
        intervals = [a.help.interval for a in self.agents.values() if a.help is not None]
        if not intervals:
            return None
        return sum(intervals) / len(intervals)

    def mean_view_staleness(self) -> float:
        """Average age of the availability beliefs across all agents.

        The quantity behind the Figure 8 discussion: pull-based
        information "can be out-of-dated rather easily" — this makes the
        staleness measurable per protocol.
        """
        now = self.sim.now
        vals = [a.view.mean_staleness(now) for a in self.agents.values()]
        return sum(vals) / len(vals) if vals else 0.0

    def flight_dump(self, error: str) -> Optional[dict]:
        """The recorder's crash dump for this system (None when off)."""
        if self.recorder is None:
            return None
        return self.recorder.dump(
            cell=cell_identity(self.cfg), sim=self.sim, error=error
        )

    def result(self) -> RunResult:
        self.settle()
        # actual wire traffic, next to the paper's weighted accounting:
        # the weighted totals charge every flood #links (the paper's
        # proxy), while these count real deliveries — what the
        # size-independence claim is actually about
        self.metrics.extra["sent_messages"] = float(self.transport.sent_messages)
        self.metrics.extra["delivered_messages"] = float(
            self.transport.delivered_messages
        )
        self.metrics.extra["view_staleness"] = self.mean_view_staleness()
        # Hardening counters: message fates under impairments and what the
        # protocols did about them (retries, fallbacks).
        self.metrics.extra["dropped_messages"] = float(self.transport.dropped_messages)
        self.metrics.extra["help_retries"] = float(
            sum(
                agent.help.retries for agent in self.agents.values() if agent.help is not None
            )
        )
        self.metrics.extra["migration_fallbacks"] = float(
            self.coordinator.silent_fallbacks
        )
        self.metrics.extra["negotiation_timeouts"] = float(
            sum(a.timeouts_fired for a in self.admissions.values())
        )
        # Ranking-quality scorecard: how often the top-ranked candidate
        # failed (mis-rank) and how deep granted placements had to walk
        # (fallback depth) — the per-policy comparison axis.
        for key, value in self.coordinator.ranking_stats().items():
            self.metrics.extra[key] = value
        # Churn accounting (all zero on a static overlay).
        if self.cfg.churn is not None and self.cfg.churn.active:
            self.metrics.extra["churn_scheduled"] = float(self.churn_scheduled)
            self.metrics.extra["churn_joins"] = float(self.churn_joins)
            self.metrics.extra["churn_leaves"] = float(self.churn_leaves)
            self.metrics.extra["churn_skipped"] = float(self.churn_skipped)
            self.metrics.extra["nodes_final"] = float(len(self.faults.up_nodes()))
        # Fleet spread diagnostics (absent for the uniform fleet).
        if self.fleet_params:
            for key, value in fleet_summary(self.fleet_params.values()).items():
                self.metrics.extra[key] = value
        if self.transport.impairments is not None:
            for key, value in self.transport.impairments.counters().items():
                self.metrics.extra[f"impairment_{key}"] = float(value)
        # Fast-path visibility: what the cohort batcher dispatched.
        cohort_stats = self.sim.cohort_stats()
        self.metrics.extra["cohorts"] = float(cohort_stats["cohorts"])
        self.metrics.extra["cohort_batched_events"] = float(
            cohort_stats["batched_events"]
        )
        self.metrics.extra["cohort_batched_share"] = float(
            cohort_stats["batched_share"]
        )
        series_payload = None
        if self.registry is not None:
            self.registry.finish()
            if self.cfg.obs is None or self.cfg.obs.record_series:
                series_payload = self.registry.to_payload()
                series_payload["cohorts"] = {
                    "cohorts": cohort_stats["cohorts"],
                    "batched_events": cohort_stats["batched_events"],
                    "batched_share": cohort_stats["batched_share"],
                    "size_histogram": {
                        str(size): count
                        for size, count in cohort_stats["size_histogram"].items()
                    },
                }
        return self.metrics.result(
            self.cfg.params(),
            self.sim.now,
            self.mean_help_interval(),
            series=series_payload,
        )


def assemble(
    cfg: ExperimentConfig,
    sim: Simulator,
    transport_cls: Callable[..., Transport],
    metrics: MetricsCollector,
) -> System:
    """Wire every component for ``cfg`` on one runtime (nothing runs yet).

    ``sim`` is the runtime's :class:`~repro.runtime.api.SchedulerAPI`
    and ``transport_cls`` its :class:`~repro.network.transport.Transport`
    (sub)class, called with the one argument list below; the rest is the
    same code whichever runtime calls.
    """
    topo = _build_topology(cfg)
    faults = FaultManager(sim, topo)
    # The impairment engine gets its own named substream so lossy runs
    # share common random numbers (arrivals, sizes...) with clean ones;
    # when disabled the stream is never even instantiated.
    impairments = None
    if cfg.impairments is not None and cfg.impairments.enabled:
        impairments = NetworkImpairments(
            cfg.impairments, sim.streams.stream("impairments")
        )
    transport = transport_cls(
        sim,
        topo,
        # the transport's liveness is communication ability: a compromised
        # node still talks (to evacuate); only crashed nodes fall silent
        is_up=faults.can_communicate,
        # failed links drop out of floods and unicast routes alike
        link_up=faults.link_up,
        liveness_version=lambda: faults.version,
        cost_model=cost_model(cfg),
        per_hop_latency=cfg.per_hop_latency,
        on_cost=metrics.on_cost,
        impairments=impairments,
    )
    nodes = topo.nodes()

    # Shared numpy mirror of per-node state: every queue/monitor mutation
    # and every liveness transition writes through, so overlay-wide
    # censuses (view priming, availability snapshots) are one array op
    # instead of V Python calls.
    state = NodeStateArrays(nodes)
    faults.attach_state(state)

    system = System(
        cfg=cfg,
        sim=sim,
        topo=topo,
        faults=faults,
        transport=transport,
        metrics=metrics,
        state=state,
        all_nodes=nodes,
        # Heterogeneous fleet: each node's (capacity, speed, threshold,
        # resource scale) comes from its own named stream; fleet=None
        # keeps the uniform paper fleet and touches no stream at all.
        fleet_params={} if cfg.fleet is not None else None,
    )
    for nid in nodes:
        system._build_node(nid)
    hosts, agents, admissions = system.hosts, system.agents, system.admissions

    if cfg.prime_views:
        # One vectorized snapshot of every host feeds all V primings —
        # the per-agent scalar path re-derived each backlog O(V) or
        # O(deg) times over.  Values are bit-identical to
        # Host.snapshot(): same formulas over the written-through state.
        _, usage_col, headroom_col, avail_col = state.snapshot_columns(sim.now)
        snapshots = {
            nid: (float(headroom_col[i]), float(usage_col[i]), bool(avail_col[i]))
            for i, nid in enumerate(state.ids)
        }
        for agent in agents.values():
            agent.prime_view(hosts, snapshots=snapshots)

    rng_streams = sim.streams
    policy = make_policy(
        cfg.policy, all_nodes=system.all_nodes, rng=rng_streams.stream("policy")
    )
    coordinator = system.coordinator = MigrationCoordinator(
        sim,
        hosts,
        agents,
        admissions,
        metrics,
        policy=policy,
        is_up=faults.is_up,
        silent_retry_budget=cfg.migration_retry_budget,
    )
    faults.on_change(coordinator.handle_fault)

    sizes = ExponentialSizes(
        cfg.task_mean,
        rng_streams.stream("sizes"),
        cap=cfg.queue_capacity if cfg.cap_task_sizes else None,
    )
    if cfg.arrival_process == "deterministic":
        arrivals: object = DeterministicArrivals(gap=1.0 / cfg.arrival_rate)
    else:
        arrivals = PoissonArrivals(cfg.arrival_rate, rng_streams.stream("arrivals"))

    demand_rng = rng_streams.stream("demands")
    demand_means = dict(cfg.demand_means)

    # Per-run task ids: the module-global Task counter would drift between
    # runs in one process (and between pool workers), breaking bit-identical
    # traces for identical seeds.  Each system numbers its tasks from 0.
    task_ids = itertools.count()

    def emit(origin: int) -> None:
        demand: Dict[str, float] = {}
        for name, mean in demand_means.items():
            demand[name] = float(demand_rng.exponential(mean))
        if cfg.secure_task_fraction > 0 and (
            float(demand_rng.uniform()) < cfg.secure_task_fraction
        ):
            demand["security"] = 1.0
        size = sizes.sample()
        deadline = (
            cfg.deadline_factor * size if cfg.deadline_factor is not None else None
        )
        task = Task(
            size=size,
            arrival_time=sim.now,
            origin=origin,
            relative_deadline=deadline,
            demand=demand,
            task_id=next(task_ids),
        )
        coordinator.place_task(task)

    system.generator = ArrivalGenerator(
        sim, arrivals, emit, faults.up_nodes, until=cfg.horizon
    )

    # Observability layer: built last so its probes see every component,
    # started so the t=0 baseline lands before any event fires.  The
    # registry holds one periodic heap entry at SAMPLING priority and
    # touches no RNG stream, so enabling it changes no behaviour.
    if cfg.obs is not None:
        registry = system.registry = MetricsRegistry(
            sim, interval=cfg.obs.effective_interval(cfg.horizon)
        )
        install_run_probes(
            registry,
            state=state,
            collector=metrics,
            transport=transport,
            coordinator=coordinator,
            admissions=admissions.values(),
            agents=agents.values(),
            settle=system.settle,
        )
        recorder = system.recorder = FlightRecorder()
        recorder.attach_tracer(sim.trace)
        registry.attach_recorder(recorder)
        registry.start()

    # Continuous churn: the schedule is generated up front from the
    # kernel's named "churn" substream (same seed => same schedule,
    # serial or parallel, scalar or batched) and installed as kernel
    # events.  Callbacks are guarded — by the time an event fires, the
    # population may have shifted under faults/chaos layers, so a join
    # re-targets dead attach points and a leave of an already-down or
    # last-remaining node is skipped, not an error.
    if cfg.churn is not None and cfg.churn.active:
        _install_churn(system)

    # The attack schedule, last: drawn from the kernel's named "attack"
    # substream against the t=0 overlay and installed as fault events.
    if cfg.attack is not None:
        cfg.attack.plan(topo, cfg.horizon, sim.streams.stream("attack")).install(faults)

    return system


def build_system(cfg: ExperimentConfig) -> System:
    """Assemble ``cfg`` on the discrete-event simulator (nothing runs yet)."""
    sim = Simulator(seed=cfg.seed, trace=Tracer(enabled=cfg.trace))
    return assemble(cfg, sim, Transport, MetricsCollector())


def _install_churn(system: System) -> None:
    cfg = system.cfg
    churn = cfg.churn
    schedule = poisson_churn(
        system.topo.nodes(),
        horizon=cfg.horizon,
        join_rate=churn.join_rate,
        leave_rate=churn.leave_rate,
        rng=system.sim.streams.stream("churn"),
        attach_degree=churn.attach_degree,
    )
    system.churn_scheduled = len(schedule)

    def on_join(node_id: int, attach_to) -> None:
        live = [
            p
            for p in attach_to
            if system.topo.has_node(p) and system.faults.is_up(p)
        ]
        try:
            # dead attach targets fall back to the lowest-id live node
            system.add_node(node_id, attach_to=live or None)
        except (RuntimeError, ValueError):
            system.churn_skipped += 1
            return
        system.churn_joins += 1

    def on_leave(node_id: int) -> None:
        if node_id not in system.hosts or not system.faults.is_up(node_id):
            system.churn_skipped += 1
            return
        if len(system.faults.up_nodes()) <= 2:
            system.churn_skipped += 1  # keep a minimal system alive
            return
        system.remove_node(node_id, graceful=churn.graceful)
        system.churn_leaves += 1

    schedule.install(system.sim, on_join, on_leave)


def run_experiment(cfg: ExperimentConfig, *, profile=None) -> RunResult:
    """Build, run to the horizon, summarise.

    Pass ``profile=KernelProfiler()`` to attribute the run's wall time
    per subsystem; inspect ``profile.report()`` afterwards.
    """
    system = build_system(cfg)
    try:
        system.run(profile=profile)
    except Exception as exc:
        _attach_flight_dump(system, exc)
        raise
    return system.result()


def _attach_flight_dump(system: System, exc: BaseException) -> None:
    """Pin the recorder's crash dump onto ``exc`` as ``flight_dump``.

    The plan executor reads the attribute back via ``getattr`` so the
    dump survives the trip through worker-process pickling as plain
    data; exceptions that refuse attribute assignment lose the dump but
    still propagate.
    """
    if system.recorder is None:
        return
    try:
        exc.flight_dump = system.flight_dump(  # type: ignore[attr-defined]
            f"{type(exc).__name__}: {exc}"
        )
    except AttributeError:  # slotted/extension exception type
        pass
