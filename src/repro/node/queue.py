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

Fast path: residency is one list of ``[completion, task, seq, event]``
entries read from a head index, plus a ``task_id -> entry`` index.
``seq`` is a per-queue monotonically increasing admission number;
completions fire in admission order (FIFO — completion times are
non-decreasing), so finishing a task advances the head past its entry —
O(1), guarded by the seq — instead of the seed's O(n) resident-list
rebuild (O(n²) per drain, the old ``queue_admission_throughput`` wall).
The finished slot is cleared at once, so a completed task is not kept
alive, and the dead prefix is dropped once it passes half the list: the
drop is amortised O(1) per completion, a queue never holds more dead
slots than live entries, and an empty queue is an empty list.  A list,
not a ``collections.deque``: a deque's first 64-slot block costs about
740 bytes per queue, 7.4 MB at 10 000 nodes.

Each entry owns its *live* completion :class:`~repro.sim.events.Event`:
``remove`` cancels and reschedules the events it shifts rather than
stacking guarded duplicates, and ``drop_all`` cancels outright instead
of leaving dead events to churn the heap.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from ..runtime.api import Priority, quiet
from .task import Task, TaskStatus

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.api import SchedulerAPI

__all__ = ["WorkQueue"]

# entry layout: [completion_time, task, admission_seq, completion_event]
_COMPLETION, _TASK, _SEQ, _EVENT = range(4)


class WorkQueue:
    """FIFO unit-rate work queue with a capacity in seconds.

    Parameters
    ----------
    sim:
        Kernel, used to schedule completion callbacks.
    capacity:
        Maximum backlog in seconds (100 in the simulation, 50 on the
        testbed of Section 6).
    on_complete:
        Optional callback ``(task)`` fired when a task finishes.
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
        self._next_seq = 0
        self.admitted_count = 0
        self.completed_count = 0
        self.work_admitted = 0.0
        # Optional write-through mirror: the shared busy_until column of a
        # NodeStateArrays, bound via bind_state().  Kept as a bare array
        # reference + slot so the hot admission path pays one is-None test.
        self._mirror = None
        self._mirror_slot = -1

    def bind_state(self, arrays, slot: int) -> None:
        """Mirror ``busy_until`` into ``arrays.busy_until[slot]``.

        The queue stays the sole mutator; every subsequent busy_until
        change writes through so vectorized snapshots over the arrays
        agree with the scalar state at all times.
        """
        arrays.busy_until[slot] = self.busy_until
        arrays.capacity[slot] = self.capacity
        self._mirror = arrays.busy_until
        self._mirror_slot = slot

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
        return [entry[_TASK] for entry in islice(self._resident, self._head, None)]

    def __contains__(self, task: Task) -> bool:
        """O(1) residency test."""
        return task.task_id in self._index

    def __len__(self) -> int:
        return len(self._index)

    # Mutation -----------------------------------------------------------------

    def try_admit(self, task: Task) -> Optional[float]:
        """Single-pass admission: one fit test, then enqueue.

        Returns the completion time, or ``None`` when the task does not
        fit.  This is the hot path behind :meth:`Host.try_accept
        <repro.node.host.Host.try_accept>`.
        """
        now = self.sim.now
        busy = self.busy_until
        start = busy if busy > now else now
        completion = start + task.size / self.speed
        # completion - now == backlog + service; same test as fits().
        if completion - now > self.capacity + 1e-12:
            return None
        self.busy_until = completion
        if self._mirror is not None:
            self._mirror[self._mirror_slot] = completion
        seq = self._next_seq
        self._next_seq = seq + 1
        event = self.sim.at(
            completion, self._complete, task, seq, priority=Priority.STATE
        )
        entry = [completion, task, seq, event]
        self._resident.append(entry)
        self._index[task.task_id] = entry
        self.admitted_count += 1
        self.work_admitted += task.size
        return completion

    @quiet
    def _complete(self, task: Task, seq: int) -> None:
        # Quiet: a completion sends nothing and takes its instant from its
        # event, so the live scheduler need not wake for it.
        if task.status is not TaskStatus.QUEUED:
            # drop_all and remove cancel their events, so this task was settled
            # behind the queue's back; skipping it would strand the host's queue
            raise RuntimeError(f"task {task.task_id} completes in state {task.status.value}")
        resident = self._resident
        head = self._head
        # Completions fire in admission order (completion times are
        # non-decreasing and stale events are cancelled), so the head is
        # the finishing entry; the seq guard makes staleness an O(1) check.
        if head == len(resident) or resident[head][_SEQ] != seq:
            return
        # the simulator's clock reads the same float when this runs
        done_at = resident[head][_EVENT].time
        resident[head] = None
        head += 1
        if 2 * head > len(resident):  # more dead slots than live entries
            del resident[:head]
            head = 0
        self._head = head
        del self._index[task.task_id]
        task.mark_completed(done_at)
        self.completed_count += 1
        if self.on_complete is not None:
            self.on_complete(task)

    def drop_all(self) -> List[Task]:
        """Node crash: abandon all resident work.  Returns the lost tasks.

        Pending completion events are cancelled here, so a crash leaves no
        dead events behind to churn the kernel heap.
        """
        lost = []
        cancel = self.sim.cancel
        for entry in islice(self._resident, self._head, None):
            task = entry[_TASK]
            cancel(entry[_EVENT])
            task.mark_lost()
            lost.append(task)
        self._resident.clear()
        self._head = 0
        self._index.clear()
        self.busy_until = self.sim.now
        if self._mirror is not None:
            self._mirror[self._mirror_slot] = self.busy_until
        return lost

    def remove(self, task: Task) -> None:
        """Withdraw a queued task (evacuation) and compact the backlog.

        The work behind the removed task moves up: every later completion
        time shifts earlier by ``task.size``; earlier tasks (including a
        running head) are untouched.  This models a preemptible FIFO queue
        where un-started work can be migrated away.

        Each shifted entry's stale completion event is cancelled and
        replaced (the entry keeps its admission seq), so repeated
        withdrawals never accumulate dead events.
        """
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
        cancel = self.sim.cancel
        cancel(entry[_EVENT])
        behind = False
        for e in resident:
            if e is entry:
                behind = True
                continue
            if behind:
                cancel(e[_EVENT])
                c2 = e[_COMPLETION] - service
                e[_COMPLETION] = c2
                e[_EVENT] = self.sim.at(
                    c2 if c2 > now else now,
                    self._complete,
                    e[_TASK],
                    e[_SEQ],
                    priority=Priority.STATE,
                )
        resident.remove(entry)
        del self._index[task.task_id]
        self.busy_until -= service
        if self._mirror is not None:
            self._mirror[self._mirror_slot] = self.busy_until
        # The withdrawn task re-enters the placement pipeline.
        task.status = TaskStatus.CREATED
