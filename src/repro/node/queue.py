"""The per-node work queue.

Each node is "a single queue of 100 seconds to process tasks" drained by a
unit-rate CPU (Section 5).  The queue's *backlog* at time ``t`` is the
residual work in seconds; it rises by ``task.size`` at each admission and
decays at rate 1 between events.  We represent it analytically through
``busy_until`` (the instant the server goes idle) instead of stepping the
decay, so queries are O(1) and exact:

    backlog(t) = max(0, busy_until - t)

Admission control is the paper's test: a task fits iff
``backlog + size <= capacity``.

Fast path: residency is one list of ``[completion, task]`` entries read
from a head index, plus a ``task_id -> entry`` index.  A task's
completion instant is fixed when it is admitted, so no event marks it
done: :meth:`retire` completes every head entry due by the clock, in
FIFO order (completion times are non-decreasing), and every reader and
mutator of resident state calls it first.  No kernel event is scheduled,
cancelled or rescheduled per task.  Completions carry
``Priority.STATE``'s meaning without an event: a reader at instant ``t``
sees every task due at or before ``t`` done, as an event in the lowest
band would have left it.  A task due but not yet retired stays resident
until the queue is next touched; :meth:`System.settle
<repro.experiments.runner.System.settle>` retires every host before a
result or a sample reads the counts.

Retiring advances the head past the finished entry, O(1).  The
finished slot is cleared at once, so a completed task is not kept alive
by the queue, and the dead prefix is dropped once it passes half the
list: the drop is amortised O(1) per completion, a queue never holds
more dead slots than live entries, and an empty queue is an empty list.
A list, not a ``collections.deque``: a deque's first 64-slot block costs
about 740 bytes per queue, 7.4 MB at 10 000 nodes.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from .task import Task, TaskStatus

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.api import SchedulerAPI

__all__ = ["WorkQueue"]

# entry layout: [completion_time, task]
_COMPLETION, _TASK = 0, 1
_INF = float("inf")


class WorkQueue:
    """FIFO unit-rate work queue with a capacity in seconds.

    Parameters
    ----------
    sim:
        Scheduler whose clock decides which tasks are done.
    capacity:
        Maximum backlog in seconds (100 in the simulation, 50 on the
        testbed of Section 6).
    on_complete:
        Optional callback ``(task)`` fired when a finished task is
        retired (the task's ``completed_time`` is its completion instant,
        which may lie behind the clock).
    speed:
        Service-rate multiplier of this node's CPU (the heterogeneous
        fleet axis).  A task of size ``s`` occupies the server for
        ``s / speed`` wall seconds; backlog, capacity and headroom all
        stay in *wall* seconds, so the analytic ``busy_until`` model and
        the vectorized state mirror are unchanged.  The default ``1.0``
        is the paper's unit-rate CPU and is bit-identical to the
        pre-fleet behaviour (``x / 1.0 == x`` exactly in IEEE 754).
    """

    def __init__(
        self,
        sim: "SchedulerAPI",
        capacity: float,
        on_complete: Optional[Callable[[Task], None]] = None,
        speed: float = 1.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.sim = sim
        self.capacity = float(capacity)
        self.speed = float(speed)
        self.on_complete = on_complete
        self.busy_until = 0.0
        #: entries before ``_head`` are finished slots (``None``)
        self._resident: List[Optional[list]] = []
        self._head = 0
        self._index: Dict[int, list] = {}  # task_id -> resident entry
        self.admitted_count = 0
        self._completed_count = 0
        self.work_admitted = 0.0
        # Optional write-through mirror: the shared busy_until and
        # next_completion columns of a NodeStateArrays, bound via
        # bind_state().  Kept as bare array references + slot so the hot
        # admission path pays one is-None test.
        self._mirror = None
        self._next_mirror = None
        self._mirror_slot = -1

    def bind_state(self, arrays, slot: int) -> None:
        """Mirror ``busy_until`` and the head task's completion instant
        into ``arrays.busy_until[slot]`` / ``arrays.next_completion[slot]``.

        The queue stays the sole mutator; every subsequent change writes
        through so vectorized snapshots over the arrays agree with the
        scalar state at all times.
        """
        arrays.busy_until[slot] = self.busy_until
        arrays.capacity[slot] = self.capacity
        self._mirror = arrays.busy_until
        self._next_mirror = arrays.next_completion
        self._mirror_slot = slot
        self._write_next_completion()

    def _write_next_completion(self) -> None:
        resident, head = self._resident, self._head
        self._next_mirror[self._mirror_slot] = (
            resident[head][_COMPLETION] if head < len(resident) else _INF
        )

    # Queries ----------------------------------------------------------------

    def backlog(self, now: Optional[float] = None) -> float:
        """Residual work in seconds at ``now`` (default: current sim time)."""
        t = self.sim.now if now is None else now
        return max(0.0, self.busy_until - t)

    def usage(self, now: Optional[float] = None) -> float:
        """Backlog as a fraction of capacity, in [0, 1]."""
        return min(self.backlog(now) / self.capacity, 1.0)

    def headroom(self, now: Optional[float] = None) -> float:
        """Seconds of work the queue can still accept."""
        return self.capacity - self.backlog(now)

    def fits(self, size: float, now: Optional[float] = None) -> bool:
        """The paper's admission test: backlog + service time <= capacity."""
        return size / self.speed <= self.headroom(now) + 1e-12

    def resident_tasks(self) -> List[Task]:
        """Tasks admitted but not yet completed (FIFO order)."""
        self.retire()
        return [entry[_TASK] for entry in islice(self._resident, self._head, None)]

    def __contains__(self, task: Task) -> bool:
        """O(1) residency test (after retiring what is due)."""
        self.retire()
        return task.task_id in self._index

    def __len__(self) -> int:
        self.retire()
        return len(self._index)

    @property
    def completed_count(self) -> int:
        """Tasks completed here, as of now."""
        self.retire()
        return self._completed_count

    # Mutation -----------------------------------------------------------------

    def retire(self, now: Optional[float] = None) -> None:
        """Complete every resident task due by ``now`` (default: the clock).

        Head entries with ``completion <= now`` finish in FIFO order: each
        task is marked completed at its own completion instant and handed
        to ``on_complete``.
        """
        t = self.sim.now if now is None else now
        resident = self._resident
        head = self._head
        end = len(resident)
        if head == end or resident[head][_COMPLETION] > t:
            return
        while head < end and resident[head][_COMPLETION] <= t:
            done_at, task = resident[head]
            if task.status is not TaskStatus.QUEUED:
                # drop_all and remove take their tasks out of the queue, so
                # this one was settled behind the queue's back; skipping it
                # would strand the host's queue
                raise RuntimeError(
                    f"task {task.task_id} completes in state {task.status.value}"
                )
            resident[head] = None
            head += 1
            if 2 * head > end:  # more dead slots than live entries
                del resident[:head]
                end -= head
                head = 0
            self._head = head
            del self._index[task.task_id]
            task.mark_completed(done_at)
            self._completed_count += 1
            if self.on_complete is not None:
                self.on_complete(task)
        if self._mirror is not None:
            self._write_next_completion()

    def try_admit(self, task: Task) -> Optional[float]:
        """Single-pass admission: one fit test, then enqueue.

        Returns the completion time, or ``None`` when the task does not
        fit.  This is the hot path behind :meth:`Host.try_accept
        <repro.node.host.Host.try_accept>`.
        """
        now = self.sim.now
        self.retire(now)
        busy = self.busy_until
        start = busy if busy > now else now
        completion = start + task.size / self.speed
        # completion - now == backlog + service; same test as fits().
        if completion - now > self.capacity + 1e-12:
            return None
        self.busy_until = completion
        if self._mirror is not None:
            self._mirror[self._mirror_slot] = completion
            if self._head == len(self._resident):  # the new task heads the queue
                self._next_mirror[self._mirror_slot] = completion
        entry = [completion, task]
        self._resident.append(entry)
        self._index[task.task_id] = entry
        self.admitted_count += 1
        self.work_admitted += task.size
        return completion

    def drop_all(self) -> List[Task]:
        """Node crash: abandon all resident work.  Returns the lost tasks."""
        self.retire()
        lost = [entry[_TASK] for entry in islice(self._resident, self._head, None)]
        for task in lost:
            task.mark_lost()
        self._resident.clear()
        self._head = 0
        self._index.clear()
        self.busy_until = self.sim.now
        if self._mirror is not None:
            self._mirror[self._mirror_slot] = self.busy_until
            self._next_mirror[self._mirror_slot] = _INF
        return lost

    def remove(self, task: Task) -> None:
        """Withdraw a queued task (evacuation) and compact the backlog.

        The work behind the removed task moves up: every later completion
        time shifts earlier by ``task.size``; earlier tasks (including a
        running head) are untouched.  This models a preemptible FIFO queue
        where un-started work can be migrated away.
        """
        self.retire()
        entry = self._index.get(task.task_id)
        if entry is None or entry[_TASK] is not task:
            raise KeyError(f"task {task.task_id} not resident")
        resident = self._resident
        # a withdrawal walks the queue, O(n) already: drop the dead prefix
        del resident[:self._head]
        self._head = 0
        now = self.sim.now
        # Already-started work cannot be withdrawn: only the head task has
        # started, and only if the server is busy.
        service = task.size / self.speed
        if entry is resident[0] and self.busy_until > now:
            started_for = now - (entry[_COMPLETION] - service)
            if started_for > 1e-12:
                raise ValueError(f"task {task.task_id} already started")
        at = next(i for i, e in enumerate(resident) if e is entry)
        for e in islice(resident, at + 1, None):
            c2 = e[_COMPLETION] - service
            e[_COMPLETION] = c2 if c2 > now else now
        del resident[at]
        del self._index[task.task_id]
        self.busy_until -= service
        if self._mirror is not None:
            self._mirror[self._mirror_slot] = self.busy_until
            self._write_next_completion()
        # The withdrawn task re-enters the placement pipeline.
        task.status = TaskStatus.CREATED
