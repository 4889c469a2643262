"""The per-run metrics hub.

One :class:`MetricsCollector` is created per simulation run.  It owns the
message/task counters, is wired into the transport's ``on_cost`` hook and
the migration coordinator's outcome reporting, and produces the final
:class:`RunResult` record consumed by the figure harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..node.task import Task, TaskOutcome
from .counters import MessageCounters, TaskCounters

__all__ = ["MetricsCollector", "RunResult"]


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
        self._response_sum = 0.0
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
            self._response_sum += rt
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
        return self._response_sum / self._response_n if self._response_n else 0.0

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
