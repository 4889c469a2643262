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
    hysteresis:
        Optional dead band: after a crossing, the opposite crossing fires
        only once usage moves ``hysteresis`` past the threshold.  The
        paper's protocols use 0; the ablation A2 explores small bands to
        damp the PLEDGE churn behind the Figure 7 peak.

    Callers must invoke :meth:`notify_change` after every queue mutation
    (the :class:`~repro.node.host.Host` does this).
    """

    def __init__(
        self,
        sim: "SchedulerAPI",
        queue: WorkQueue,
        threshold: float,
        hysteresis: float = 0.0,
    ) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0,1), got {threshold}")
        if hysteresis < 0 or threshold + hysteresis >= 1.0:
            raise ValueError("invalid hysteresis")
        self.sim = sim
        self.queue = queue
        self.threshold = float(threshold)
        self.hysteresis = float(hysteresis)
        self._listeners: List[Crossing] = []
        self._below = self.queue.usage() < self.threshold
        self._pending: Optional["TimerHandle"] = None
        self.crossings_up = 0
        self.crossings_down = 0
        # Optional write-through mirror of the threshold side into a
        # NodeStateArrays column (see bind_state).
        self._mirror = None
        self._mirror_slot = -1

    def bind_state(self, arrays, slot: int) -> None:
        """Mirror the monitor constants and threshold side into ``arrays``.

        ``threshold`` is written once (it is immutable); the last-known
        side writes through on every flip so ``arrays.below[slot]``
        always equals :attr:`below`.
        """
        arrays.threshold[slot] = self.threshold
        arrays.below[slot] = self._below
        self._mirror = arrays.below
        self._mirror_slot = slot

    def _set_below(self, below: bool) -> None:
        self._below = below
        if self._mirror is not None:
            self._mirror[self._mirror_slot] = below

    # Queries ---------------------------------------------------------------

    def usage(self) -> float:
        return self.queue.usage()

    @property
    def below(self) -> bool:
        """Whether the node currently counts as available (last known side)."""
        return self._below

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
        """
        usage = self.queue.usage()
        if self._below and usage >= self.threshold + self.hysteresis:
            self._set_below(False)
            self.crossings_up += 1
            self._fire(UP, usage)
        elif not self._below and usage < self.threshold - self.hysteresis:
            # Can happen via task withdrawal (evacuation), not decay.
            self._set_below(True)
            self.crossings_down += 1
            self._fire(DOWN, usage)
        self._reschedule_decay()

    def _cross_time(self) -> float:
        """Analytic instant the decaying backlog reaches the threshold."""
        target_backlog = (self.threshold - self.hysteresis) * self.queue.capacity
        cross_time = self.queue.busy_until - target_backlog
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
        if usage >= self.threshold - self.hysteresis:
            # Stale early fire: the queue refilled after this event was
            # scheduled.  Re-aim at the current analytic crossing.
            self._pending = self.sim.at(
                self._cross_time(), self._decay_cross, priority=Priority.STATE
            )
            return
        self._set_below(True)
        self.crossings_down += 1
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
