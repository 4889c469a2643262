"""The live runtime: the shared system assembly on a wall clock.

:class:`LiveRuntime` builds nothing of the system itself.  It hands
:func:`repro.experiments.runner.assemble` — the one assembly path, which
:func:`~repro.experiments.runner.build_system` also uses — a
:class:`~repro.live.scheduler.LiveScheduler` for time and a
:class:`~repro.live.transport.LiveTransport` for messaging, and
holds the :class:`~repro.experiments.runner.System` that comes back.

What this module adds, because it only makes sense live:

* :class:`LiveConfig` — :class:`~repro.experiments.config.ExperimentConfig`
  plus the five live-only fields, with the defaults that differ live
  and the axes the live runtime cannot honour rejected by name;
* the Agile Objects :class:`~repro.live.naming.NamingService`, the
  runtime's name service — every node registers itself
  at startup, and a task's binding lives as long as the task: registered
  at its admission, unregistered when it completes or is lost;
* per-task **settlement latency** (arrival to admission/rejection, wall
  milliseconds) in a :class:`~repro.obs.registry.Histogram` of the
  run's :class:`~repro.obs.registry.MetricsRegistry` plus an exact 8-byte
  sample: all that is kept of a task that left (``docs/live.md``, "Memory");
* graceful drain: after the horizon the runtime keeps the clock running
  until every generated task settles (or a drain timeout expires), then
  stops agents, closes the transport and reports whether shutdown was
  clean.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import partial
from time import perf_counter, process_time
from typing import Dict, Optional

import numpy as np

from ..experiments.config import ExperimentConfig
from ..experiments.runner import assemble
from ..metrics.collector import MetricsCollector
from ..node.task import Task, TaskStatus
from ..obs.config import ObsConfig
from ..obs.registry import Histogram
from ..obs.telemetry import ProtocolRollup
from ..sim.trace import Tracer

from .naming import NamingService
from .scheduler import LiveScheduler
from .transport import BACKENDS, LiveTransport

__all__ = ["LiveConfig", "LiveRuntime", "run_live"]

#: settlement-latency histogram bin edges, wall milliseconds
LATENCY_EDGES_MS = (
    0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 5000.0,
)


@dataclass(frozen=True)
class LiveConfig(ExperimentConfig):
    """One live run: an :class:`ExperimentConfig` plus what is live-only.

    Every inherited axis that is node, workload or migration logic
    (topology family, fleet, policy, retry budget, deadlines, extra
    resources, arrival process, ...) works live unchanged.  Times
    (``horizon``, ``arrival_rate``, ``obs.sample_interval``, ...) are in
    *virtual* seconds.
    """

    # Inherited fields whose default differs live ---------------------------
    nodes: Optional[int] = 25
    arrival_rate: float = 6.0
    horizon: float = 30.0
    seed: int = 42
    #: the LAN accounting of Section 6 (as in Figure 9's
    #: ``repro.experiments.figures.TESTBED``): switched unicast = 1
    #: message, IP-multicast flood = 1 message
    fixed_unicast_cost: float = 1.0
    flood_cost_override: Optional[float] = 1.0
    #: the live report always carries the sampled series
    obs: Optional[ObsConfig] = ObsConfig(sample_interval=1.0, agent_stride=4)

    # Live-only fields --------------------------------------------------------
    #: virtual seconds per wall second (1 = real time)
    time_scale: float = 1.0
    #: transport backend: "inproc" or "udp"
    backend: str = "inproc"
    #: per-message one-way latency in virtual seconds; None = the LAN
    #: default (:data:`~repro.live.transport.LAN_LATENCY`, 0.2 ms)
    latency: Optional[float] = None
    #: extra virtual seconds allowed for in-flight tasks to settle
    drain_timeout: float = 30.0
    #: progress-line cadence, virtual seconds (None = silent)
    progress_interval: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout cannot be negative")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; known: {BACKENDS}")
        # Axes the live runtime cannot honour: refuse them by name rather
        # than run without them.  One endpoint is brought up per t=0 node.
        if self.churn is not None and self.churn.active:
            raise ValueError("churn: a live overlay cannot add endpoints mid-run")
        if self.obs is None or not self.obs.enabled:
            raise ValueError("obs: the live report is built on the run registry")


class _LiveMetrics(MetricsCollector):
    """The run collector plus what the live runtime keeps per task.

    Settlement is a task's first admission decision (admitted, rejected,
    or lost before deciding) — the quantity the paper's admission
    probability is over — in wall milliseconds since its arrival.  The
    virtual clock is the wall clock times ``time_scale``, so the wall
    latency is the task's virtual age divided by the scale.

    Everything else kept for a task — its ``task/<id>`` binding in
    ``naming``, its id — lasts from admission to completion or loss.
    """

    def __init__(self, sim: LiveScheduler, naming: NamingService) -> None:
        super().__init__()
        self._sim = sim
        self._naming = naming
        #: exact settlement latencies, wall ms (report percentiles): one
        #: unboxed double per task, the runtime's only per-task residue
        self.latencies_ms = array("d")
        #: the same, binned; the runtime files it in the run registry
        self.latency_hist = Histogram("settlement_latency_ms", LATENCY_EDGES_MS)
        #: binding name of every task that can still settle again:
        #: admitted and neither completed nor lost
        self._settled_ids: Dict[int, str] = {}

    def _settle(self, task: Task) -> None:
        ms = (self._sim.now - task.arrival_time) * 1000.0 / self._sim.time_scale
        self.latencies_ms.append(ms)
        self.latency_hist.observe(ms)

    def _leave(self, task: Task) -> bool:
        """End ``task``'s residency; False if it never was admitted."""
        name = self._settled_ids.pop(task.task_id, None)
        if name is not None:
            self._naming.unregister(name)
        return name is not None

    def task_admitted(self, task: Task) -> None:
        super().task_admitted(task)  # raises on an outcome that admits nothing
        name = self._settled_ids.get(task.task_id)
        if name is None:
            self._settle(task)
            if task.status is not TaskStatus.QUEUED:
                return  # an orphaned grant, confirmed after the task completed
            name = self._settled_ids[task.task_id] = f"task/{task.task_id}"
        self._naming.register(name, task.admitted_at)

    def evacuation(self, task: Task, success: bool) -> None:
        super().evacuation(task, success)
        name = self._settled_ids.get(task.task_id)
        if success and name is not None:
            # a granted evacuation moves a resident task without passing
            # through task_admitted: its binding follows it
            self._naming.register(name, task.admitted_at)

    def task_rejected(self, task: Task) -> None:
        self._settle(task)  # terminal, and only ever a first decision
        super().task_rejected(task)

    def task_lost(self, task: Task) -> None:
        # an admitted task lost to a crash keeps its first decision's latency
        if not self._leave(task):
            self._settle(task)
        super().task_lost(task)

    def task_completed(self, task: Task) -> None:
        self._leave(task)
        super().task_completed(task)

    @property
    def unsettled(self) -> int:
        return self.tasks.generated - len(self.latencies_ms)


class LiveRuntime:
    """The shared :class:`~repro.experiments.runner.System` assembled on
    the live scheduler and transport; drive it with :meth:`run`."""

    def __init__(self, cfg: LiveConfig) -> None:
        self.cfg = cfg
        self.sim = LiveScheduler(
            seed=cfg.seed, trace=Tracer(enabled=cfg.trace), time_scale=cfg.time_scale
        )
        # Name service promotion: every node registers itself; the
        # collector binds each admitted task for as long as it is resident.
        self.naming = NamingService(self.sim)
        self.metrics = _LiveMetrics(self.sim, self.naming)
        self.system = assemble(
            cfg,
            self.sim,
            partial(LiveTransport, backend=cfg.backend, latency=cfg.latency),
            self.metrics,
        )
        self.transport: LiveTransport = self.system.transport
        self.coordinator = self.system.coordinator
        hist = self.metrics.latency_hist
        self.system.registry.histograms[hist.name] = hist

        for nid in self.system.hosts:
            self.naming.register(f"node/{nid}", nid)

        self._wall_elapsed = self._cpu_elapsed = 0.0
        self.clean_shutdown = False
        self.drained = False

    # Execution ----------------------------------------------------------

    async def run(self) -> Dict[str, object]:
        """Generate load to the horizon, drain, shut down, report."""
        cfg = self.cfg
        await self.transport.start()
        progress = None
        if cfg.progress_interval is not None:
            progress = self.sim.shared_periodic(
                cfg.progress_interval, self._progress_line
            )
        wall0, cpu0 = perf_counter(), process_time()
        await self.sim.run(until=cfg.horizon)
        # Graceful drain: in-flight negotiations settle through their own
        # timers/timeouts; keep the clock running in short slices until
        # nothing is outstanding or the drain budget is spent.
        deadline = self.sim.now + cfg.drain_timeout
        slice_ = max(cfg.drain_timeout / 20.0, 1e-3)
        while self.metrics.unsettled > 0 and self.sim.now < deadline:
            await self.sim.run(until=min(self.sim.now + slice_, deadline))
        self._wall_elapsed = perf_counter() - wall0
        self._cpu_elapsed = process_time() - cpu0
        self.drained = self.metrics.unsettled == 0
        # Teardown: progress + sampling off, agents stopped, endpoints closed.
        if progress is not None:
            progress.stop()
        self.system.registry.finish()
        for agent in self.system.agents.values():
            agent.stop()
        self.system.generator.stop()
        await self.transport.aclose()
        self.clean_shutdown = (
            self.drained and self.transport.node_task_count == 0
        )
        return self.report()

    # Reporting ----------------------------------------------------------

    def _percentile(self, q: float) -> float:
        latencies = self.metrics.latencies_ms
        if not latencies:
            return float("nan")
        return float(np.percentile(np.frombuffer(latencies), q))

    def _progress_line(self) -> None:
        t = self.metrics.tasks
        admitted = t.admitted_local + t.admitted_migrated
        sys.stderr.write(
            f"[live] t={self.sim.now:.1f} gen={t.generated} adm={admitted} "
            f"rej={t.rejected} p50={self._percentile(50):.2f}ms "
            f"p99={self._percentile(99):.2f}ms "
            f"msgs={self.transport.sent_messages}\n"
        )
        sys.stderr.flush()

    def report(self) -> Dict[str, object]:
        """JSON-ready run summary (the CLI prints / uploads this)."""
        cfg = self.cfg
        t = self.metrics.tasks
        admitted = t.admitted_local + t.admitted_migrated
        wall = self._wall_elapsed
        latencies = self.metrics.latencies_ms
        result = self.metrics.result(
            {**cfg.params(), "backend": cfg.backend, "live": True},
            self.sim.now,
            None,
        )
        # The PR-8 sweep rollup, reused for the single live run so live
        # and simulated reports share one vocabulary.
        rollup = ProtocolRollup()
        rollup.add(result)
        return {
            "config": {
                "nodes": cfg.num_nodes,
                "topology": cfg.topology,
                "protocol": cfg.protocol,
                "arrival_rate": cfg.arrival_rate,
                "horizon": cfg.horizon,
                "seed": cfg.seed,
                "time_scale": cfg.time_scale,
                "backend": cfg.backend,
            },
            "tasks": {
                "generated": t.generated,
                "admitted": admitted,
                "admitted_local": t.admitted_local,
                "admitted_migrated": t.admitted_migrated,
                "rejected": t.rejected,
                "completed": t.completed,
                "lost": t.lost,
            },
            "admission_probability": result.admission_probability,
            "rollup": {
                "message_rate": rollup.message_rate,
                "loss_rate": rollup.loss_rate,
                "admission": rollup.admission,
            },
            "latency_ms": {
                "count": len(latencies),
                "p50": self._percentile(50),
                "p90": self._percentile(90),
                "p99": self._percentile(99),
                "max": max(latencies) if latencies else float("nan"),
                "histogram_p50": self.metrics.latency_hist.percentile(50),
                "histogram_p99": self.metrics.latency_hist.percentile(99),
            },
            "throughput": {
                "wall_seconds": wall,
                "cpu_seconds": self._cpu_elapsed,
                "cpu_util": (self._cpu_elapsed / wall) if wall > 0 else 0.0,
                "tasks_per_wall_second": (t.generated / wall) if wall > 0 else 0.0,
                "virtual_seconds": self.sim.now,
            },
            "messages": {
                "sent": self.transport.sent_messages,
                "delivered": self.transport.delivered_messages,
                "dropped": self.transport.dropped_messages,
            },
            "naming": {
                "bindings": len(self.naming),
                "lookups": self.naming.lookups,
                "updates": self.naming.updates,
            },
            "scheduler": {
                "events_executed": self.sim.events_executed,
                "late_events": self.sim.late_events,
                "wakeups": self.sim.wakeups,
                "timer": self.sim.timer,
            },
            "drained": self.drained,
            "clean_shutdown": self.clean_shutdown,
            "series": self.system.registry.to_payload(),
        }


async def run_live(cfg: LiveConfig) -> Dict[str, object]:
    """Build a :class:`LiveRuntime` for ``cfg``, run it, return the report."""
    return await LiveRuntime(cfg).run()
