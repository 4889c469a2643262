"""Node-local CPU schedulers for the Agile Objects emulation.

Section 4 of the paper: "The management of CPU resource is greatly
simplified by the use of guaranteed-rate scheduling in the nodes ...
admission control becomes a simple utilization test ... The current
implementation uses a Constant Utilization Server."  Section 6: "Job
Scheduler provides a simple form of real-time task scheduler with static
priority and EDF in the same priority."

Three cooperating pieces:

* :class:`ConstantUtilizationServer` — the guaranteed-rate ledger: each
  resident component reserves a utilization share; admission is the test
  ``sum(u_i) <= bound``; available CPU *is* the unallocated utilization.
* :class:`EdfScheduler` — a preemptive unit-rate server ordering jobs by
  (static priority, absolute deadline) and reporting deadline misses.
* :class:`Job` — one schedulable request.

The EDF scheduler is event-driven: on every arrival/completion it picks the
highest-priority ready job and schedules its tentative completion; a newer
arrival with an earlier deadline preempts by cancelling the tentative event
and accounting the executed slice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from ..runtime.api import Priority

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.api import SchedulerAPI, TimerHandle

__all__ = ["ConstantUtilizationServer", "EdfScheduler", "Job"]

_job_ids = itertools.count()


class ConstantUtilizationServer:
    """Utilization ledger implementing guaranteed-rate admission.

    Parameters
    ----------
    bound:
        Total schedulable utilization (<= 1.0 for a uniprocessor EDF
        system; the classic Liu & Layland EDF bound).
    """

    def __init__(self, bound: float = 1.0) -> None:
        if not 0.0 < bound <= 1.0:
            raise ValueError("bound must be in (0, 1]")
        self.bound = float(bound)
        self._shares: Dict[str, float] = {}

    @property
    def allocated(self) -> float:
        return sum(self._shares.values())

    @property
    def available(self) -> float:
        """Unallocated utilization — the paper's 'directly measured' CPU
        availability."""
        return self.bound - self.allocated

    def can_admit(self, utilization: float) -> bool:
        """The simple utilization test."""
        return 0.0 < utilization <= self.available + 1e-12

    def admit(self, component: str, utilization: float) -> None:
        if component in self._shares:
            raise ValueError(f"component already admitted: {component}")
        if not self.can_admit(utilization):
            raise RuntimeError(
                f"utilization test failed: {utilization:.3f} > {self.available:.3f} free"
            )
        self._shares[component] = float(utilization)

    def release(self, component: str) -> float:
        """Remove a component's reservation (migration away); returns it."""
        try:
            return self._shares.pop(component)
        except KeyError:
            raise KeyError(f"component not admitted: {component}") from None

    def share(self, component: str) -> float:
        return self._shares[component]

    def components(self) -> List[str]:
        return sorted(self._shares)

    def __contains__(self, component: str) -> bool:
        return component in self._shares


@dataclass
class Job:
    """One schedulable request handed to :class:`EdfScheduler`."""

    exec_time: float
    release_time: float
    absolute_deadline: float
    priority: int = 0           # lower = more urgent (static band)
    label: str = ""
    job_id: int = field(default_factory=lambda: next(_job_ids))

    remaining: float = field(init=False)
    completed_time: Optional[float] = None
    started: bool = False

    def __post_init__(self) -> None:
        if self.exec_time <= 0:
            raise ValueError("exec_time must be positive")
        self.remaining = self.exec_time

    @property
    def missed_deadline(self) -> Optional[bool]:
        if self.completed_time is None:
            return None
        return self.completed_time > self.absolute_deadline + 1e-9

    def sort_key(self) -> tuple:
        """Static priority band first, EDF within the band, id for ties."""
        return (self.priority, self.absolute_deadline, self.job_id)


class EdfScheduler:
    """Preemptive static-priority + EDF unit-rate CPU.

    ``submit`` releases a job immediately (or schedules a future release);
    ``on_complete(job)`` callbacks fire as jobs finish.  Utilization above
    1 simply queues work — deadline misses are reported, matching the
    behaviour of a real overloaded EDF node.
    """

    def __init__(
        self,
        sim: "SchedulerAPI",
        on_complete: Optional[Callable[[Job], None]] = None,
    ) -> None:
        self.sim = sim
        self.on_complete = on_complete
        self._ready: List[Job] = []
        self._running: Optional[Job] = None
        self._run_started = 0.0
        self._completion_event: Optional["TimerHandle"] = None
        self.completed: List[Job] = []

    # Submission ----------------------------------------------------------

    def submit(self, job: Job) -> None:
        if job.release_time > self.sim.now + 1e-12:
            self.sim.at(job.release_time, self._release, job, priority=Priority.STATE)
        else:
            self._release(job)

    def _release(self, job: Job) -> None:
        self._ready.append(job)
        self._reschedule()

    # Queries --------------------------------------------------------------

    def backlog(self) -> float:
        """Total remaining work (includes the running job's residue)."""
        total = sum(j.remaining for j in self._ready)
        if self._running is not None:
            total += self._running_residual()
        return total

    def pending_jobs(self) -> int:
        return len(self._ready) + (1 if self._running is not None else 0)

    def _running_residual(self) -> float:
        assert self._running is not None
        executed = self.sim.now - self._run_started
        return max(self._running.remaining - executed, 0.0)

    # Core dispatch --------------------------------------------------------------

    def _reschedule(self) -> None:
        # Preempt the running job if a more urgent one is ready.
        if self._running is not None:
            best = min(self._ready, key=Job.sort_key) if self._ready else None
            if best is not None and best.sort_key() < self._running.sort_key():
                self._preempt()
            else:
                return  # current job keeps the CPU
        self._dispatch()

    def _preempt(self) -> None:
        assert self._running is not None
        job = self._running
        job.remaining = self._running_residual()
        self.sim.cancel(self._completion_event)
        self._completion_event = None
        self._running = None
        if job.remaining > 1e-12:
            self._ready.append(job)
        else:  # finished exactly at preemption instant
            self._finish(job)

    def _dispatch(self) -> None:
        if self._running is not None or not self._ready:
            return
        job = min(self._ready, key=Job.sort_key)
        self._ready.remove(job)
        job.started = True
        self._running = job
        self._run_started = self.sim.now
        self._completion_event = self.sim.at(
            self.sim.now + job.remaining, self._complete_running, priority=Priority.STATE
        )

    def _complete_running(self) -> None:
        job = self._running
        assert job is not None
        self._running = None
        self._completion_event = None
        job.remaining = 0.0
        self._finish(job)
        self._dispatch()

    def _finish(self, job: Job) -> None:
        job.completed_time = self.sim.now
        self.completed.append(job)
        if self.on_complete is not None:
            self.on_complete(job)

    # Statistics -------------------------------------------------------------

    def miss_ratio(self) -> float:
        """Fraction of completed jobs that missed their deadline."""
        if not self.completed:
            return 0.0
        misses = sum(1 for j in self.completed if j.missed_deadline)
        return misses / len(self.completed)
