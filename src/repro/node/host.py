"""Host: a node's local resource stack.

Binds together the work queue, the threshold monitor and the (optional)
multi-resource pool, and owns the *local* admission decision.  Discovery
protocols and the migration layer talk to hosts only through this class,
so the single-resource simulation of Section 5 and the multi-resource
extension share one code path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, TYPE_CHECKING

from .monitor import ThresholdMonitor
from .queue import WorkQueue
from .resources import ResourcePool
from .task import Task, TaskOutcome

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.api import SchedulerAPI

__all__ = ["Host", "HostSnapshot"]


class HostSnapshot(NamedTuple):
    """Point-in-time view of a host's queue state.

    One backlog evaluation feeds every derived field, replacing the
    separate ``usage()`` + ``availability()`` + ``is_available()`` calls
    (each of which re-derived the backlog) in the per-advertisement and
    per-admission paths.
    """

    time: float
    backlog: float      #: residual work, seconds
    usage: float        #: backlog / capacity, clamped to [0, 1]
    headroom: float     #: capacity - backlog — the PLEDGE 'degree' field
    available: bool     #: Algorithm P's test: usage strictly below threshold


class Host:
    """One node's queue + monitor + resource pool.

    Parameters
    ----------
    sim:
        Simulation kernel.
    node_id:
        Overlay node identifier.
    capacity:
        Queue capacity in seconds (100 in the simulation, 50 on the
        testbed).
    threshold:
        Availability threshold for the monitor (0.9 in the evaluation).
    pool:
        Optional extra resources (multi-resource extension).
    on_complete:
        Callback per finished task, forwarded to the queue.
    speed:
        Service-rate multiplier forwarded to the queue (heterogeneous
        fleet axis; 1.0 = the paper's unit-rate CPU).
    """

    def __init__(
        self,
        sim: "SchedulerAPI",
        node_id: int,
        capacity: float,
        threshold: float = 0.9,
        pool: Optional[ResourcePool] = None,
        on_complete: Optional[Callable[[Task], None]] = None,
        speed: float = 1.0,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.queue = WorkQueue(sim, capacity, on_complete=self._task_done, speed=speed)
        self.monitor = ThresholdMonitor(sim, self.queue, threshold)
        self.pool = pool
        self._user_on_complete = on_complete
        #: tasks whose extra resources are still held, for release on completion
        self._held: Dict[int, Dict[str, float]] = {}

    def bind_state(self, arrays) -> None:
        """Mirror this host's queue state and threshold into shared arrays.

        Wires the write-through slots of a :class:`NodeStateArrays
        <repro.node.state_arrays.NodeStateArrays>` for this node so
        vectorized overlay-wide snapshots see the same state as the
        scalar queries.
        """
        slot = arrays.slot(self.node_id)
        self.queue.bind_state(arrays, slot)
        arrays.threshold[slot] = self.monitor.threshold

    # Local admission -----------------------------------------------------

    def try_accept(self, task: Task, outcome: TaskOutcome) -> Optional[float]:
        """Admit ``task`` if it fits: returns its completion time, or
        ``None`` when the queue (or, if present, the pool) has no room.

        One queue fit test and no exception on the miss path, so the
        per-arrival hot chain does not re-derive the backlog.
        """
        if self.pool is not None and task.demand:
            # finished tasks release their extra resources before the test
            self.queue.retire()
            if not self.pool.fits(task.demand):
                return None
            self.pool.allocate(task.demand)
            self._held[task.task_id] = dict(task.demand)
        completion = self.queue.try_admit(task)
        if completion is None:
            held = self._held.pop(task.task_id, None)
            if held is not None:
                self.pool.release(held)  # type: ignore[union-attr]
            return None
        task.mark_admitted(self.node_id, self.sim.now, outcome)
        self.monitor.notify_change()
        return completion

    def _task_done(self, task: Task) -> None:
        held = self._held.pop(task.task_id, None)
        if held is not None and self.pool is not None:
            self.pool.release(held)
        # The decay crossing is analytic; completion does not change
        # backlog discontinuously, so no notify_change here.
        if self._user_on_complete is not None:
            self._user_on_complete(task)

    # State exposure (what PLEDGEs advertise) --------------------------------

    def snapshot(self) -> HostSnapshot:
        """Every advertised queue quantity from one backlog evaluation.

        The protocols' advertise/pledge paths need usage, headroom and the
        availability bit together; computing them independently re-derives
        ``max(0, busy_until - now)`` three or four times per message.
        """
        queue = self.queue
        backlog = queue.busy_until - self.sim.now
        if backlog < 0.0:
            backlog = 0.0
        capacity = queue.capacity
        usage = backlog / capacity
        if usage > 1.0:
            usage = 1.0
        return HostSnapshot(
            time=self.sim.now,
            backlog=backlog,
            usage=usage,
            headroom=capacity - backlog,
            available=usage < self.monitor.threshold,
        )

    def usage(self) -> float:
        return self.queue.usage()

    def availability(self) -> float:
        """Seconds of queue headroom — the PLEDGE 'degree' field."""
        return self.queue.headroom()

    def availability_vector(self) -> Dict[str, float]:
        """Full multi-resource availability (cpu = headroom seconds)."""
        vec = {"cpu": self.availability()}
        if self.pool is not None:
            self.queue.retire()  # release what finished tasks held
            vec.update(self.pool.availability_vector())
        return vec

    def is_available(self) -> bool:
        """Algorithm P's test: usage strictly below the threshold."""
        return self.monitor.available()

    # Survivability hooks ----------------------------------------------------

    def evacuable_tasks(self) -> List[Task]:
        """Resident tasks that may be withdrawn (all but a started head)."""
        tasks = self.queue.resident_tasks()
        out = []
        for i, t in enumerate(tasks):
            if i == 0 and self.queue.backlog() > 0:
                continue  # head has started executing
            out.append(t)
        return out

    def withdraw(self, task: Task) -> None:
        """Remove a queued task for evacuation."""
        self.queue.remove(task)
        held = self._held.pop(task.task_id, None)
        if held is not None and self.pool is not None:
            self.pool.release(held)
        self.monitor.notify_change()

    def crash(self) -> List[Task]:
        """Drop all resident work (node failure).  Returns lost tasks."""
        lost = self.queue.drop_all()
        for task in lost:
            held = self._held.pop(task.task_id, None)
            if held is not None and self.pool is not None:
                self.pool.release(held)
        self.monitor.notify_change()
        return lost

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.node_id} usage={self.usage():.2f}>"
