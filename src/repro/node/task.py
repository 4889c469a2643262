"""Task model.

The simulation's unit of work is a *task*: a sequential CPU demand measured
in seconds (the paper: "a task with value 2 holds the CPU on the node for
2 seconds").  Tasks optionally carry a relative deadline (the QoS
experiments' ``deadline_factor``) and a multi-resource demand vector
(used by the extension experiments).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

__all__ = ["Task", "TaskStatus", "TaskOutcome"]

_task_ids = itertools.count()


class TaskStatus(str, Enum):
    """Lifecycle state of a task."""

    CREATED = "created"
    QUEUED = "queued"
    COMPLETED = "completed"
    REJECTED = "rejected"


class TaskOutcome(str, Enum):
    """How the task was (or was not) admitted — the figures' categories."""

    LOCAL = "local"            # fitted at its arrival node
    MIGRATED = "migrated"      # admitted at a discovered remote node
    REJECTED = "rejected"      # no local fit and the one-shot migration failed
    EVACUATED = "evacuated"    # moved off a compromised node (survivability runs)
    LOST = "lost"              # resident on a node that crashed


@dataclass
class Task:
    """A unit of CPU work.

    Parameters
    ----------
    size:
        CPU seconds required (positive).
    arrival_time:
        Simulated time the task entered the system.
    origin:
        The node the workload generator assigned it to.
    relative_deadline:
        Seconds from arrival by which the task should complete; ``None``
        means best-effort (the paper's simulation setting).
    demand:
        Optional extra resource demands keyed by resource name, for the
        multi-resource extension (footnote 3 in the paper).
    """

    size: float
    arrival_time: float
    origin: int
    relative_deadline: Optional[float] = None
    demand: Dict[str, float] = field(default_factory=dict)
    task_id: int = field(default_factory=lambda: next(_task_ids))

    status: TaskStatus = TaskStatus.CREATED
    outcome: Optional[TaskOutcome] = None
    admitted_at: Optional[int] = None       # node id where it finally ran
    admitted_time: Optional[float] = None
    completed_time: Optional[float] = None
    migrations: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"task size must be positive, got {self.size!r}")
        if self.relative_deadline is not None and self.relative_deadline <= 0:
            raise ValueError("relative deadline must be positive")

    # Derived quantities ---------------------------------------------------

    @property
    def absolute_deadline(self) -> float:
        """Arrival + relative deadline (``inf`` when best-effort)."""
        if self.relative_deadline is None:
            return float("inf")
        return self.arrival_time + self.relative_deadline

    @property
    def response_time(self) -> Optional[float]:
        """Completion minus arrival, if completed."""
        if self.completed_time is None:
            return None
        return self.completed_time - self.arrival_time

    @property
    def met_deadline(self) -> Optional[bool]:
        """Whether completion beat the absolute deadline (None if pending)."""
        if self.completed_time is None:
            return None
        return self.completed_time <= self.absolute_deadline

    # Lifecycle transitions -----------------------------------------------

    def mark_admitted(self, node: int, time: float, outcome: TaskOutcome) -> None:
        if self.status not in (TaskStatus.CREATED, TaskStatus.QUEUED):
            raise RuntimeError(f"cannot admit task in state {self.status}")
        self.status = TaskStatus.QUEUED
        self.admitted_at = node
        self.admitted_time = time
        self.outcome = outcome

    def mark_completed(self, time: float) -> None:
        if self.status is not TaskStatus.QUEUED:
            raise RuntimeError(f"cannot complete task in state {self.status}")
        self.status = TaskStatus.COMPLETED
        self.completed_time = time

    def mark_rejected(self) -> None:
        if self.status is TaskStatus.COMPLETED:
            raise RuntimeError("cannot reject a completed task")
        self.status = TaskStatus.REJECTED
        self.outcome = TaskOutcome.REJECTED

    def mark_lost(self) -> None:
        """Resident node crashed before completion."""
        self.status = TaskStatus.REJECTED
        self.outcome = TaskOutcome.LOST

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Task #{self.task_id} size={self.size:.3g} origin={self.origin} "
            f"{self.status.value}>"
        )
