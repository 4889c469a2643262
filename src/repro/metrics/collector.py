"""The per-run metrics hub: the one place a run's counts are made.

One :class:`MetricsCollector` is created per run.  It owns the message
and task counters, is wired into the transport's ``on_cost`` hook and
the migration coordinator's outcome reporting, and freezes them into the
:class:`RunResult` record the figures, studies and run store consume.
The observability registry only *samples* these counters; it counts
nothing itself.

The paper's overhead metric is a weighted message count: a flood costs
``#links``, a unicast its hop count.  :class:`MessageCounters` keeps it
per message kind (Fig 6's totals, Fig 7's cost per admitted task), and
:class:`TaskCounters` the numerators and denominators of Figs 5 and 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum
from typing import Dict, Optional

from ..node.task import Task, TaskOutcome

__all__ = ["MessageCounters", "MetricsCollector", "RunResult", "TaskCounters"]


@dataclass
class MessageCounters:
    """Weighted message-cost accumulator keyed by message kind."""

    by_kind: Dict[str, float] = field(default_factory=dict)

    def add(self, kind: str, cost: float) -> None:
        """Record one send of ``kind`` with weighted ``cost``."""
        if cost < 0:
            raise ValueError(f"negative message cost: {cost}")
        self.by_kind[kind] = self.by_kind.get(kind, 0.0) + cost

    def total(self) -> float:
        """Total weighted message count across kinds (the Fig 6 y-axis)."""
        return sum(self.by_kind.values())

    def snapshot(self) -> Dict[str, float]:
        return dict(self.by_kind)


@dataclass
class TaskCounters:
    """Task-outcome accumulator — the numerators/denominators of Figs 5 & 8."""

    generated: int = 0
    admitted_local: int = 0
    admitted_migrated: int = 0
    rejected: int = 0
    completed: int = 0
    lost: int = 0
    evacuations: int = 0
    evacuation_failures: int = 0
    migration_attempts: int = 0
    migration_failures: int = 0

    @property
    def admitted(self) -> int:
        return self.admitted_local + self.admitted_migrated

    @property
    def admission_probability(self) -> float:
        """admitted / generated (Fig 5's y-axis); 0 when nothing generated."""
        return self.admitted / self.generated if self.generated else 0.0

    @property
    def migration_rate(self) -> float:
        """migrated / admitted (Fig 8's y-axis)."""
        return self.admitted_migrated / self.admitted if self.admitted else 0.0

    def check_conservation(self) -> None:
        """Every generated task is admitted, rejected or still in flight.

        Called at the end of every run; raises on accounting drift.
        """
        accounted = self.admitted + self.rejected
        if accounted > self.generated:
            raise AssertionError(
                f"task accounting drift: admitted={self.admitted} "
                f"rejected={self.rejected} > generated={self.generated}"
            )


@dataclass(frozen=True)
class RunResult:
    """Immutable summary of one simulation run.

    ``params`` carries the experiment inputs (protocol, lambda, seed…) so
    result tables are self-describing.
    """

    params: Dict[str, object]
    horizon: float
    generated: int
    admitted_local: int
    admitted_migrated: int
    rejected: int
    completed: int
    lost: int
    evacuations: int
    evacuation_failures: int
    messages_total: float
    messages_by_kind: Dict[str, float]
    response_time_mean: float
    help_interval_mean: Optional[float] = None
    extra: Dict[str, float] = field(default_factory=dict)
    #: sampled trajectories from the run's metrics registry (the
    #: :meth:`MetricsRegistry.to_payload
    #: <repro.obs.registry.MetricsRegistry.to_payload>` dict), or None
    #: when the run's observability layer was off
    series: Optional[Dict[str, object]] = None

    @property
    def admitted(self) -> int:
        return self.admitted_local + self.admitted_migrated

    @property
    def admission_probability(self) -> float:
        return self.admitted / self.generated if self.generated else 0.0

    @property
    def migration_rate(self) -> float:
        return self.admitted_migrated / self.admitted if self.admitted else 0.0

    @property
    def messages_per_admitted(self) -> float:
        return self.messages_total / self.admitted if self.admitted else float("inf")

    def messages_for(self, kind: str) -> float:
        return self.messages_by_kind.get(kind, 0.0)


class MetricsCollector:
    """Mutable accumulator wired into transport and migration layers."""

    def __init__(self) -> None:
        self.messages = MessageCounters()
        self.tasks = TaskCounters()
        #: response-time sum per completing node.  A queue retires its
        #: tasks in FIFO order whenever it is read, so how retirements on
        #: different nodes interleave depends on who reads when (an
        #: observability tick, say); each node's own sum does not.
        self._response_sums: Dict[int, float] = {}
        self._response_n = 0
        self.extra: Dict[str, float] = {}
        #: QoS accounting for deadline-carrying tasks
        self.deadlines_met = 0
        self.deadlines_missed = 0

    # Transport hook ------------------------------------------------------

    def on_cost(self, kind: str, cost: float) -> None:
        """``Transport.on_cost`` adapter."""
        self.messages.add(kind, cost)

    # Task lifecycle ------------------------------------------------------

    def task_generated(self) -> None:
        self.tasks.generated += 1

    def task_admitted(self, task: Task) -> None:
        if task.outcome is TaskOutcome.LOCAL:
            self.tasks.admitted_local += 1
        elif task.outcome in (TaskOutcome.MIGRATED, TaskOutcome.EVACUATED):
            self.tasks.admitted_migrated += 1
        else:
            raise ValueError(f"unexpected admission outcome: {task.outcome}")

    def task_rejected(self, _task: Task) -> None:
        self.tasks.rejected += 1

    def task_completed(self, task: Task) -> None:
        self.tasks.completed += 1
        rt = task.response_time
        if rt is not None:
            node = task.admitted_at
            self._response_sums[node] = self._response_sums.get(node, 0.0) + rt
            self._response_n += 1
        if task.relative_deadline is not None:
            if task.met_deadline:
                self.deadlines_met += 1
            else:
                self.deadlines_missed += 1

    def task_lost(self, _task: Task) -> None:
        self.tasks.lost += 1

    def migration_attempt(self, success: bool) -> None:
        self.tasks.migration_attempts += 1
        if not success:
            self.tasks.migration_failures += 1

    def evacuation(self, task: Task, success: bool) -> None:
        self.tasks.evacuations += 1
        if not success:
            self.tasks.evacuation_failures += 1

    # Finalisation ---------------------------------------------------------

    @property
    def response_time_mean(self) -> float:
        if not self._response_n:
            return 0.0
        # fsum: exact, so the nodes' sums add up alike in any order
        return fsum(self._response_sums.values()) / self._response_n

    @property
    def deadline_miss_rate(self) -> float:
        """Misses / deadline-carrying completions (0 when none)."""
        total = self.deadlines_met + self.deadlines_missed
        return self.deadlines_missed / total if total else 0.0

    def result(
        self,
        params: Dict[str, object],
        horizon: float,
        help_interval_mean: Optional[float] = None,
        series: Optional[Dict[str, object]] = None,
    ) -> RunResult:
        """Freeze the accumulated metrics into a :class:`RunResult`."""
        self.tasks.check_conservation()
        if self.deadlines_met or self.deadlines_missed:
            self.extra["deadline_miss_rate"] = self.deadline_miss_rate
            self.extra["deadlines_met"] = float(self.deadlines_met)
            self.extra["deadlines_missed"] = float(self.deadlines_missed)
        return RunResult(
            params=dict(params),
            horizon=horizon,
            generated=self.tasks.generated,
            admitted_local=self.tasks.admitted_local,
            admitted_migrated=self.tasks.admitted_migrated,
            rejected=self.tasks.rejected,
            completed=self.tasks.completed,
            lost=self.tasks.lost,
            evacuations=self.tasks.evacuations,
            evacuation_failures=self.tasks.evacuation_failures,
            messages_total=self.messages.total(),
            messages_by_kind=self.messages.snapshot(),
            response_time_mean=self.response_time_mean,
            help_interval_mean=help_interval_mean,
            extra=dict(self.extra),
            series=series,
        )
