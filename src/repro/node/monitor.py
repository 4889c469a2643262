"""Resource monitor with threshold-crossing detection.

Both halves of REALTOR key off a usage threshold (0.9 in the evaluation):

* Algorithm P replies PLEDGE "whenever the resource availability changes
  across the threshold level",
* the adaptive-PUSH baseline floods its state on exactly the same event.

Backlog *rises* only at admissions (discrete, easy) but *falls*
continuously as the server drains, so the downward crossing is a real
point in time between events.  :class:`ThresholdMonitor` computes it
analytically from the queue's ``busy_until`` and keeps at most one pending
crossing event.

Crossings exist only where someone listens: a monitor without an
:meth:`~ThresholdMonitor.on_cross` listener (every row but ``push-.9``,
``realtor`` and ``realtor-hier*``) tracks no side, schedules no crossing
and traces none.

Fast path (lazy invalidation): a queue mutation can only push the analytic
crossing *later* (admissions grow ``busy_until``) or *earlier*
(withdrawals).  Only the earlier case needs a cancel+reschedule; when the
crossing moves later the pending event is kept and verified on fire — a
stale early fire sees usage still above the threshold and re-aims itself
at the current analytic crossing.  This replaces the seed's two kernel
operations (cancel + schedule) per above-threshold admission with zero.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from ..runtime.api import Priority
from .queue import WorkQueue

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.api import SchedulerAPI, TimerHandle

__all__ = ["ThresholdMonitor", "Crossing"]

# direction constants
UP = "up"
DOWN = "down"

Crossing = Callable[[str, float], None]  # (direction, usage_after)


class ThresholdMonitor:
    """Watches a :class:`~repro.node.queue.WorkQueue` for threshold crossings.

    Parameters
    ----------
    sim, queue:
        Kernel and the queue under observation.
    threshold:
        Usage fraction in (0, 1); the node is *available* (will pledge)
        while ``usage < threshold``.

    Callers must invoke :meth:`notify_change` after every queue mutation
    (the :class:`~repro.node.host.Host` does this).  The monitor does
    nothing until a listener registers.  Listeners register only in
    ``DiscoveryAgent.start``, which the system builder calls on a fresh,
    idle host, so the side starts below the threshold and is right from
    the first listener on.
    """

    def __init__(
        self, sim: "SchedulerAPI", queue: WorkQueue, threshold: float
    ) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0,1), got {threshold}")
        self.sim = sim
        self.queue = queue
        self.threshold = float(threshold)
        self._listeners: List[Crossing] = []
        self._below = True  # the queue is empty (see the class docstring)
        self._pending: Optional["TimerHandle"] = None

    # Queries ---------------------------------------------------------------

    def available(self) -> bool:
        """Instantaneous availability test used by Algorithm P."""
        return self.queue.usage() < self.threshold

    # Listeners -----------------------------------------------------------

    def on_cross(self, fn: Crossing) -> None:
        """Register ``fn(direction, usage)``; direction is ``"up"``/``"down"``."""
        self._listeners.append(fn)

    # State-change handling ----------------------------------------------------

    def notify_change(self) -> None:
        """Re-evaluate the threshold side after a queue mutation.

        Fires an UP crossing immediately if the admission pushed usage over
        the threshold, then (re)schedules the analytic DOWN crossing.
        Without a listener there is nothing to tell, so nothing is done.
        """
        if not self._listeners:
            return
        usage = self.queue.usage()
        if self._below and usage >= self.threshold:
            self._below = False
            self._fire(UP, usage)
        elif not self._below and usage < self.threshold:
            # Can happen via task withdrawal (evacuation), not decay.
            self._below = True
            self._fire(DOWN, usage)
        self._reschedule_decay()

    def _cross_time(self) -> float:
        """Analytic instant the decaying backlog reaches the threshold."""
        cross_time = self.queue.busy_until - self.threshold * self.queue.capacity
        # Guard against scheduling in the past due to float fuzz.
        now = self.sim.now
        if cross_time < now:
            cross_time = now
        return cross_time + 1e-9

    def _reschedule_decay(self) -> None:
        pending = self._pending
        if self._below:
            # Decay can only cross downward, and we're already below.
            if pending is not None:
                self.sim.cancel(pending)
                self._pending = None
            return
        cross_time = self._cross_time()
        if pending is not None:
            if pending.time <= cross_time:
                # The crossing moved later (or stayed put): keep the event
                # and let the verify-on-fire check in _decay_cross re-aim.
                return
            self.sim.cancel(pending)
        self._pending = self.sim.at(
            cross_time, self._decay_cross, priority=Priority.STATE
        )

    def _decay_cross(self) -> None:
        self._pending = None
        usage = self.queue.usage()
        if self._below:
            return
        if usage >= self.threshold:
            # Stale early fire: the queue refilled after this event was
            # scheduled.  Re-aim at the current analytic crossing.
            self._pending = self.sim.at(
                self._cross_time(), self._decay_cross, priority=Priority.STATE
            )
            return
        self._below = True
        self._fire(DOWN, usage)

    def _fire(self, direction: str, usage: float) -> None:
        self.sim.trace.emit(
            self.sim.now, "threshold-cross", direction=direction, usage=usage
        )
        for fn in self._listeners:
            fn(direction, usage)

    def detach(self) -> None:
        """Cancel pending events and drop listeners (node shutdown)."""
        if self._pending is not None:
            self.sim.cancel(self._pending)
            self._pending = None
        self._listeners.clear()
