"""The live half of the runtime seam: a wall-clock scheduler over asyncio.

:class:`LiveScheduler` implements the same
:class:`~repro.runtime.api.SchedulerAPI` surface as the discrete-event
:class:`~repro.sim.kernel.Simulator`, so every protocol agent, the fault
manager, the admission layer and the arrival generator run **unchanged**
against it.  The differences are exactly what "live" means:

* **Time is real.**  ``now`` is elapsed wall time scaled by
  ``time_scale`` (virtual seconds per wall second); the scheduler sleeps
  between deadlines instead of jumping the clock.  ``time_scale=1`` is
  real time, larger values compress a long virtual horizon into a short
  wall run (the live-vs-sim equivalence tests use this).
* **Waits are armed, not spun.**  ``run`` sleeps toward its heap head on
  a one-shot ``timerfd`` the loop watches, armed :data:`MARGIN` early
  (the margin is spun) and re-armed only by an earlier insert.  Loop
  timers round *up* to whole milliseconds: they are the fallback only.
* **The past is unreachable.**  ``at()`` with a deadline already behind
  the clock cannot raise — the moment has passed; the event fires as
  soon as possible instead and ``late_events`` counts the clamp.
* **Ties are best-effort.**  Events due at the same instant still fire
  in ``(time, priority, seq)`` order — the same key the kernel heap
  uses — but wall-clock jitter means cross-instant ordering guarantees
  are only as good as the event loop's timer resolution.

The agenda itself is *the kernel's*: the heap, the
:class:`~repro.sim.events.Event` handles, tracked ``cancel`` with heap
compaction, ``periodic`` / ``shared_periodic``, finalizers and ``stop``
are inherited from :class:`~repro.sim.kernel.Agenda`, so a timer means
one thing on both clocks.  This module holds only the list above.
"""

from __future__ import annotations

import asyncio
import ctypes
import os
from contextlib import suppress
from math import inf
from time import perf_counter
from typing import Any, Callable, Optional

from ..runtime.api import Priority
from ..sim.events import Event
from ..sim.kernel import Agenda
from ..sim.trace import Tracer

__all__ = ["LiveScheduler"]

#: a wait is armed to end this many wall seconds early; the rest is spun
MARGIN = 60e-6
#: most events executed between two cooperative yields (see ``run``)
MAX_BATCH = 512


class _Timerfd:
    """One-shot monotonic timerfd the loop watches (``os.timerfd_*``: 3.13+)."""

    def __init__(self, loop: asyncio.AbstractEventLoop, wake: Callable[[], None]):
        libc = ctypes.CDLL(None, use_errno=True)
        int_, ptr = ctypes.c_int, ctypes.c_void_p
        self._settime = libc.timerfd_settime  # AttributeError: libc has none
        self._settime.argtypes, self._settime.restype = (int_, int_, ptr, ptr), int_
        libc.timerfd_create.argtypes, libc.timerfd_create.restype = (int_, int_), int_
        # 1 = CLOCK_MONOTONIC; TFD_NONBLOCK / TFD_CLOEXEC are the O_ flags
        self.fd = libc.timerfd_create(1, os.O_NONBLOCK | os.O_CLOEXEC)
        if self.fd < 0:
            raise OSError(ctypes.get_errno(), "timerfd_create failed")
        self._loop, self._wake = loop, wake
        # struct itimerspec: it_interval (zero: one-shot), then it_value
        self._spec = (ctypes.c_long * 4)()
        self._spec_ref = ctypes.byref(self._spec)
        loop.add_reader(self.fd, self._expired)

    def arm(self, seconds: float) -> None:
        """Expire once, ``seconds`` from now, replacing what was armed."""
        ns = max(1, int(seconds * 1e9))  # an all-zero it_value would disarm
        self._spec[2], self._spec[3] = divmod(ns, 10**9)
        if self._settime(self.fd, 0, self._spec_ref, None) < 0:
            raise OSError(ctypes.get_errno(), "timerfd_settime failed")

    def _expired(self) -> None:
        with suppress(BlockingIOError):  # re-armed since the selector saw it
            os.read(self.fd, 8)
            self._wake()

    def close(self) -> None:
        self._loop.remove_reader(self.fd)
        os.close(self.fd)


class _LoopTimer:
    """The platform fallback: ``loop.call_at``, millisecond granularity."""

    def __init__(self, loop: asyncio.AbstractEventLoop, wake: Callable[[], None]):
        self._loop, self._wake, self._handle = loop, wake, None

    def arm(self, seconds: float) -> None:
        self.close()
        self._handle = self._loop.call_at(self._loop.time() + seconds, self._wake)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.cancel()


class LiveScheduler(Agenda):
    """Wall-clock :class:`~repro.runtime.api.SchedulerAPI` implementation:
    an :class:`~repro.sim.kernel.Agenda` on a clock that has to be waited for.

    Parameters
    ----------
    seed:
        Root seed for the named random streams (same derivation as the
        simulator, so a live run and a simulated run with equal seeds
        draw identical workloads).
    trace:
        Optional tracer; a disabled one is installed when omitted.
    time_scale:
        Virtual seconds per wall-clock second.  The virtual clock is
        what every component sees through ``now`` and what all
        deadlines are expressed in.
    """

    def __init__(
        self,
        seed: int = 0,
        trace: Optional[Tracer] = None,
        *,
        time_scale: float = 1.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        super().__init__(seed, trace)
        self.time_scale = float(time_scale)
        #: wall perf_counter() of virtual t=0; None until the first run
        self._anchor_wall: Optional[float] = None
        #: virtual deadline :meth:`run` sleeps toward (-inf: awake), its future
        self._armed, self._waiter = -inf, None
        #: deadlines that had already passed when scheduled (clamped)
        self.late_events = 0
        #: armed waits :meth:`run` resumed from; their "timerfd" or "call_at"
        self.wakeups, self.timer = 0, None

    # Clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time: elapsed wall seconds times ``time_scale``."""
        if self._anchor_wall is None:
            return 0.0
        return (perf_counter() - self._anchor_wall) * self.time_scale

    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.DEFAULT,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual ``time``.

        A deadline behind the clock is clamped to "as soon as possible"
        — the live runtime cannot refuse a moment that already passed —
        and counted in :attr:`late_events`.
        """
        if time < self.now:
            self.late_events += 1
        return self._push(time, fn, args, priority)

    def after(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.DEFAULT,
    ) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        # one clock read: the deadline cannot be behind it, so never late
        return self._push(self.now + delay, fn, args, priority)

    def _push(
        self, time: float, fn: Callable[..., Any], args: tuple, priority: int
    ) -> Event:
        ev = super()._push(time, fn, args, priority)
        if time < self._armed:
            self._wake()  # run() is asleep toward something later: re-arm
        return ev

    # Execution ----------------------------------------------------------

    async def run(self, until: Optional[float] = None) -> float:
        """Drive the agenda until virtual ``until`` (or forever if None).

        Sequential calls resume the same virtual clock — the anchor is
        set once, on the first call.  Returns the final virtual time.
        Between deadlines the scheduler awaits, so the loop's other work
        (UDP endpoints, sibling tasks) runs freely.
        """
        self._begin_run()
        if self._anchor_wall is None:
            self._anchor_wall = perf_counter()
        loop = asyncio.get_running_loop()
        try:
            alarm, self.timer = _Timerfd(loop, self._wake), "timerfd"
        except (OSError, AttributeError):  # this libc has no timerfd
            alarm, self.timer = _LoopTimer(loop, self._wake), "call_at"
        queue = self.queue
        scale = self.time_scale
        horizon = inf if until is None else until
        try:
            while not self._stop_requested:
                # Drain every already-due event as one batch, then yield
                # once.  A per-event yield costs a full event-loop round
                # trip and caps the scheduler near 1k events/s wall — the
                # load generator blows straight past that.  The batch
                # bound keeps sockets and sibling tasks from starving under
                # a saturated agenda; the yield lets what the batch provoked
                # (datagrams, the sends their receipt makes) reach the agenda
                # before a wait is armed.  The drain runs *before* the horizon
                # check so an event due at t <= until still fires even
                # when the wall clock has already slipped past the horizon.
                executed = 0
                while executed < MAX_BATCH and not self._stop_requested:
                    ev = queue.pop_until(min(self.now, horizon))
                    if ev is None:
                        break
                    ev.fn(*ev.args)
                    self._events_executed += 1
                    executed += 1
                if executed:
                    await asyncio.sleep(0)
                    continue
                now = self.now
                if now >= horizon:
                    break
                # Sleep toward the heap head or the horizon, MARGIN short:
                # spinning it spends a wake-up's lateness before the deadline.
                head = queue.peek_time()
                target = horizon if head is None else min(head, horizon)
                wall = (target - now) / scale - MARGIN
                if wall <= 0:
                    await asyncio.sleep(0)
                    continue
                self._waiter = loop.create_future()
                self._armed = target
                if target != inf:  # nothing to wait for: an insert or stop()
                    alarm.arm(wall)
                await self._waiter
                self.wakeups += 1
        finally:
            self._armed = -inf  # a cancelled wait leaves it set
            alarm.close()
            self._end_run()
        return self.now

    def _wake(self) -> None:
        """End :meth:`run`'s current wait, if it is in one."""
        if self._armed != -inf:
            self._armed = -inf
            self._waiter.set_result(None)

    def stop(self) -> None:
        super().stop()
        self._wake()  # a sleeping run() has to come back to see the flag

    @property
    def pending(self) -> int:
        """Live (non-cancelled) timers still on the agenda."""
        return len(self.queue)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<LiveScheduler t={self.now:.6g} scale={self.time_scale:g} "
            f"executed={self._events_executed}>"
        )
