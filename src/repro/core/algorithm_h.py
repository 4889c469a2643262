"""Algorithm H — adaptive HELP scheduling (Figure 2 of the paper).

Pseudocode from the paper::

    Whenever a task arrives do {
      If resource usage would exceed a threshold level {
        If ((T_current - T_sent) > HELP_interval) {
          send HELP; set_timer;
    Timeout do {
      If ((HELP_interval + HELP_interval * alpha) < Upper_limit)
        HELP_interval += HELP_interval * alpha;
    Whenever a PLEDGE message arrives do {
      If the corresponding timer is not expired reset_timer;
      Update corresponding PLEDGE list;
      If a node is found for migration {
        If ((HELP_interval - HELP_interval * beta) > 0)
          HELP_interval -= HELP_interval * beta;

The interval shrinks (reward ``beta``) while pledges indicate available
resources and grows (penalty ``alpha``) when a HELP goes unanswered, so
"unnecessary discovery activity" is avoided "when the whole system is
heavily loaded".  ``Upper_limit`` bounds the back-off; the reward guard
keeps the interval positive.

:class:`HelpScheduler` implements exactly this state machine, decoupled
from messaging: the owning agent supplies a ``send`` callback and feeds
pledges back in.  The ``window`` pull reuses it with ``adaptive=False``
(fixed window — the "time window = 100" variant).
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.api import SchedulerAPI, TimerHandle

__all__ = ["HelpScheduler"]


class HelpScheduler:
    """The adaptive (or fixed) HELP-interval state machine.

    Parameters
    ----------
    sim:
        Simulation kernel (for the response timer).
    send:
        Callback that actually floods a HELP message.
    initial_interval, alpha, beta, upper_limit, response_timeout:
        Algorithm H parameters (see module docstring).
    adaptive:
        ``False`` freezes the interval at ``initial_interval`` — the
        ``window`` pull of the ``pull-100-fixed`` row.
    min_interval:
        Positivity floor implementing the paper's ``> 0`` reward guard.
    max_retries, retry_backoff:
        Loss hardening (off by default — the paper's network never drops
        a message).  With ``max_retries > 0`` an unanswered response
        window re-floods the HELP up to that many times, each retry
        waiting ``retry_backoff`` times longer, before the round is
        conceded.  The Algorithm H penalty applies once per *round* (after
        the final retry), not per transmission, so the adaptive interval
        dynamics are unchanged — retries only defend one round against
        message loss.
    """

    def __init__(
        self,
        sim: "SchedulerAPI",
        send: Callable[[], None],
        *,
        initial_interval: float,
        alpha: float,
        beta: float,
        upper_limit: float,
        response_timeout: float,
        adaptive: bool = True,
        min_interval: float = 1e-3,
        max_retries: int = 0,
        retry_backoff: float = 2.0,
        on_timeout: Optional[Callable[[], None]] = None,
        owner: Optional[int] = None,
    ) -> None:
        if initial_interval <= 0 or upper_limit < initial_interval:
            raise ValueError("need 0 < initial_interval <= upper_limit")
        if response_timeout <= 0:
            raise ValueError("response_timeout must be positive")
        if max_retries < 0 or retry_backoff < 1.0:
            raise ValueError("need max_retries >= 0 and retry_backoff >= 1")
        self.sim = sim
        self.send = send
        self.interval = float(initial_interval)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.upper_limit = float(upper_limit)
        self.response_timeout = float(response_timeout)
        self.adaptive = adaptive
        self.min_interval = float(min_interval)
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        #: optional escalation hook fired on every failed round — the
        #: inter-community extension uses this to go up a level
        self.on_timeout = on_timeout
        #: node id for trace/span emission; ``None`` silences the
        #: scheduler's own trace events (standalone unit-test use)
        self.owner = owner

        self.last_sent = -float("inf")  # T_sent
        #: correlation id of the latest HELP round, sequential per
        #: scheduler — ``(owner, last_help_id)`` keys the causality span
        self.last_help_id = -1
        self._timer: Optional["TimerHandle"] = None
        self._retries_left = 0
        self._timeout_scale = 1.0
        self.helps_sent = 0
        self.timeouts = 0
        self.retries = 0
        self.rewards = 0
        self.penalties = 0
        #: the interval trail as running sums (:meth:`mean_interval`): time of
        #: the latest adaptation; [interval x seconds, seconds] from the first.
        #: (One list, as the trail was: bench ``scale_idle`` reads 25 % worse
        #: when 10k nodes build one gc-tracked object fewer each — its full
        #: collections then land in timed slices, not in calibration chunks.)
        self._adapted_at: Optional[float] = None
        self._trail = [0.0, 0.0]

    # Trigger path ------------------------------------------------------------

    def maybe_send(self) -> bool:
        """The arrival-time gate: send iff the interval window has passed.

        The *caller* checks the threshold condition ("resource usage would
        exceed a threshold level"); this method implements the
        ``(T_current - T_sent) > HELP_interval`` test, the send, and
        ``set_timer``.
        """
        now = self.sim.now
        if (now - self.last_sent) <= self.interval:
            return False
        self.last_sent = now
        self.helps_sent += 1
        self.last_help_id += 1
        self._retries_left = self.max_retries
        self._timeout_scale = 1.0
        self._arm_timer()
        self.send()
        return True

    def _arm_timer(self) -> None:
        self._disarm_timer()
        self._timer = self.sim.after(
            self.response_timeout * self._timeout_scale, self._on_timeout
        )

    def _disarm_timer(self) -> None:
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None

    # Feedback path -----------------------------------------------------------

    def _on_timeout(self) -> None:
        """Penalty: no pledge within the response window."""
        self._timer = None
        if self._retries_left > 0:
            # The HELP (or every pledge) may have been lost in transit:
            # re-flood with a backed-off window before conceding the round.
            self._retries_left -= 1
            self._timeout_scale *= self.retry_backoff
            self.retries += 1
            self.helps_sent += 1
            self.last_help_id += 1
            self.last_sent = self.sim.now
            self._arm_timer()
            self.send()
            return
        self.timeouts += 1
        if self.on_timeout is not None:
            self.on_timeout()
        if not self.adaptive:
            return
        grown = self.interval + self.interval * self.alpha
        self.penalties += 1
        self._adapt(min(grown, self.upper_limit), "grow")

    def on_pledge(self, found_node: bool) -> None:
        """Feedback from an arriving PLEDGE.

        ``found_node`` is the paper's "a node is found for migration":
        the pledge reports enough availability to host the pending demand.
        Only such a pledge satisfies the response window ("reset_timer" +
        reward); an unusable pledge leaves the window armed, so a HELP
        round that discovers no usable resources still incurs the penalty
        — this is what pins the interval at ``Upper_limit`` under
        system-wide overload ("HELP interval is kept at maximum due to
        the repeated failure of finding available resources").
        """
        if not found_node:
            return
        if self._timer is None:
            return  # round already settled: at most one reward per HELP
        self._disarm_timer()
        if not self.adaptive:
            return
        shrunk = self.interval - self.interval * self.beta
        if shrunk > 0:
            self.rewards += 1
            self._adapt(max(shrunk, self.min_interval), "shrink")

    def _adapt(self, interval: float, direction: str) -> None:
        """One interval adaptation (penalty grow / reward shrink): close
        the outgoing interval's stretch of the trail, switch, trace."""
        now = self.sim.now
        if self._adapted_at is not None:
            held = now - self._adapted_at
            self._trail[0] += self.interval * held
            self._trail[1] += held
        self._adapted_at = now
        self.interval = interval
        trace = self.sim.trace
        if trace.enabled and self.owner is not None:
            trace.emit(
                now,
                "help-interval",
                node=self.owner,
                direction=direction,
                interval=interval,
                help_id=self.last_help_id,
            )

    # Lifecycle / introspection -----------------------------------------------

    def stop(self) -> None:
        self._disarm_timer()

    def mean_interval(self) -> float:
        """Time-weighted mean interval from the first adaptation to the
        latest; the current interval before there are two (diagnostics)."""
        area, seconds = self._trail
        return area / seconds if seconds > 0 else self.interval
