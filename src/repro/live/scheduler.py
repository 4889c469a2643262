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

The timer-aggregation helpers are *shared with the kernel*:
:class:`~repro.sim.kernel.PeriodicTimer` and
:class:`~repro.sim.kernel.RoundDriver` only ever touch the seam
(``after``/``cancel``/``streams``), so ``periodic`` and
``shared_periodic`` here return the exact same classes the simulator
returns.
"""

from __future__ import annotations

import asyncio
import ctypes
import os
from contextlib import suppress
from heapq import heappop, heappush
from math import inf
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..runtime.api import Priority
from ..sim.kernel import PeriodicTimer, RoundDriver, RoundMembership
from ..sim.rng import RandomStreams
from ..sim.trace import Tracer

__all__ = ["LiveScheduler", "LiveTimer"]

#: a wait is armed to end this many wall seconds early; the rest is spun
MARGIN = 60e-6


def _noop(*_args: Any) -> None:
    """Replacement callable for cancelled timers."""


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
        loop.add_reader(self.fd, self._expired)

    def arm(self, seconds: float) -> None:
        """Expire once, ``seconds`` from now, replacing what was armed."""
        ns = max(1, int(seconds * 1e9))  # an all-zero it_value would disarm
        # struct itimerspec: it_interval (zero: one-shot), then it_value
        spec = (ctypes.c_long * 4)(0, 0, *divmod(ns, 10**9))
        if self._settime(self.fd, 0, spec, None) < 0:
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


class LiveTimer:
    """Handle for one scheduled callback (the live analogue of
    :class:`~repro.sim.events.Event`; satisfies
    :class:`~repro.runtime.api.TimerHandle`)."""

    __slots__ = ("time", "priority", "seq", "fn", "args", "_cancelled")

    def __init__(
        self, time: float, priority: int, seq: int, fn: Callable[..., Any], args: tuple
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent, O(1) lazy)."""
        self._cancelled = True
        self.fn = _noop
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"<LiveTimer t={self.time:.6g} p={self.priority} [{state}]>"


class LiveScheduler:
    """Wall-clock :class:`~repro.runtime.api.SchedulerAPI` implementation.

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
        self.streams = RandomStreams(seed)
        self.trace = trace if trace is not None else Tracer(enabled=False)
        self.time_scale = float(time_scale)
        self._heap: List[Tuple[float, int, int, LiveTimer]] = []
        self._next_seq = 0
        self._finalizers: List[Callable[[], None]] = []
        self._round_drivers: Dict[Tuple[float, float, int], RoundDriver] = {}
        #: wall perf_counter() of virtual t=0; None until the first run
        self._anchor_wall: Optional[float] = None
        #: virtual deadline :meth:`run` sleeps toward (-inf: awake), its future
        self._armed, self._waiter = -inf, None
        self._running = False
        self._stop_requested = False
        self._events_executed = 0
        #: deadlines that had already passed when scheduled (clamped)
        self.late_events = 0
        #: armed waits :meth:`run` resumed from; their "timerfd" or "call_at"
        self.wakeups, self.timer = 0, None
        #: max events executed between cooperative yields (see :meth:`run`)
        self.max_batch = 512

    # Clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time: elapsed wall seconds times ``time_scale``."""
        if self._anchor_wall is None:
            return 0.0
        return (perf_counter() - self._anchor_wall) * self.time_scale

    @property
    def events_executed(self) -> int:
        return self._events_executed

    # Scheduling --------------------------------------------------------

    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.DEFAULT,
    ) -> LiveTimer:
        """Schedule ``fn(*args)`` at absolute virtual ``time``.

        A deadline behind the clock is clamped to "as soon as possible"
        — the live runtime cannot refuse a moment that already passed —
        and counted in :attr:`late_events`.
        """
        if time < self.now:
            self.late_events += 1
        return self._push(time, priority, fn, args)

    def after(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.DEFAULT,
    ) -> LiveTimer:
        """Schedule ``fn(*args)`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        # one clock read: the deadline cannot be behind it, so never late
        return self._push(self.now + delay, priority, fn, args)

    def _push(self, time: float, priority: int, fn: Callable, args: tuple) -> LiveTimer:
        if time != time or time == inf:
            raise ValueError(f"non-finite deadline: {time!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        timer = LiveTimer(time, priority, seq, fn, args)
        heappush(self._heap, (time, priority, seq, timer))
        if time < self._armed:
            self._wake()  # run() is asleep toward something later: re-arm
        return timer

    def cancel(self, ev: Optional[LiveTimer]) -> None:
        """Cancel a timer; ``None`` accepted so call sites pass handles
        unguarded (mirrors :meth:`Simulator.cancel
        <repro.sim.kernel.Simulator.cancel>`)."""
        if ev is not None:
            ev.cancel()

    def periodic(
        self,
        interval: float,
        fn: Callable[[], Any],
        *,
        phase: float = 0.0,
        jitter: float = 0.0,
        jitter_stream: Optional[str] = None,
        priority: int = Priority.DEFAULT,
    ) -> PeriodicTimer:
        """A self-rescheduling timer — the kernel's own
        :class:`~repro.sim.kernel.PeriodicTimer`, which only ever talks
        to the seam and therefore runs here unchanged."""
        return PeriodicTimer(
            self,  # type: ignore[arg-type]
            interval,
            fn,
            phase=phase,
            jitter=jitter,
            jitter_stream=jitter_stream,
            priority=priority,
        )

    def shared_periodic(
        self,
        interval: float,
        fn: Callable[[], Any],
        *,
        phase: float = 0.0,
        priority: int = Priority.DEFAULT,
    ) -> RoundMembership:
        """Join the shared round for this cadence (kernel's
        :class:`~repro.sim.kernel.RoundDriver`, reused verbatim)."""
        key = (float(interval), float(phase), priority)
        driver = self._round_drivers.get(key)
        if driver is None:
            driver = RoundDriver(
                self, interval, phase=phase, priority=priority  # type: ignore[arg-type]
            )
            self._round_drivers[key] = driver
        return driver.join(fn)

    def add_finalizer(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once when the current (or next) :meth:`run` returns."""
        self._finalizers.append(fn)

    # Execution ----------------------------------------------------------

    async def run(self, until: Optional[float] = None) -> float:
        """Drive the agenda until virtual ``until`` (or forever if None).

        Sequential calls resume the same virtual clock — the anchor is
        set once, on the first call.  Returns the final virtual time.
        Between deadlines the scheduler awaits, so sibling tasks (node
        mailbox loops, UDP endpoints) run freely.
        """
        if self._running:
            raise RuntimeError("run() is not reentrant")
        if self._anchor_wall is None:
            self._anchor_wall = perf_counter()
        loop = asyncio.get_running_loop()
        try:
            alarm, self.timer = _Timerfd(loop, self._wake), "timerfd"
        except (OSError, AttributeError):  # this libc has no timerfd
            alarm, self.timer = _LoopTimer(loop, self._wake), "call_at"
        self._running = True
        self._stop_requested = False
        heap = self._heap
        scale = self.time_scale
        try:
            while not self._stop_requested:
                # Drain every already-due event as one batch, then yield
                # once.  A per-event yield costs a full event-loop round
                # trip and caps the scheduler near 1k events/s wall — the
                # load generator blows straight past that.  The batch
                # bound keeps mailbox tasks from starving under a saturated
                # agenda; the yield lets what the batch provoked
                # (deliveries, the sends they make) reach the agenda before
                # a wait is armed.  The drain runs *before* the horizon
                # check so an event due at t <= until still fires even
                # when the wall clock has already slipped past the horizon.
                executed = 0
                while heap and not self._stop_requested:
                    head = heap[0]
                    if head[3]._cancelled:
                        heappop(heap)
                        continue
                    if head[0] > self.now or (
                        until is not None and head[0] > until
                    ):
                        break
                    timer = heappop(heap)[3]
                    timer.fn(*timer.args)
                    self._events_executed += 1
                    executed += 1
                    if executed >= self.max_batch:
                        break
                if executed:
                    await asyncio.sleep(0)
                    continue
                now = self.now
                if until is not None and now >= until:
                    break
                # Sleep toward the heap head or the horizon, MARGIN short:
                # spinning it spends a wake-up's lateness before the deadline.
                target = heap[0][0] if heap else inf
                if until is not None and until < target:
                    target = until
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
            self._running = False
            finalizers = self._finalizers[:]
            self._finalizers.clear()
            for fn in finalizers:
                fn()
        return self.now

    def _wake(self) -> None:
        """End :meth:`run`'s current wait, if it is in one."""
        if self._armed != -inf:
            self._armed = -inf
            self._waiter.set_result(None)

    def stop(self) -> None:
        """Request :meth:`run` to return after the current event."""
        self._stop_requested = True
        self._wake()

    @property
    def pending(self) -> int:
        """Live (non-cancelled) timers still on the agenda."""
        return sum(1 for e in self._heap if not e[3]._cancelled)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<LiveScheduler t={self.now:.6g} scale={self.time_scale:g} "
            f"executed={self._events_executed}>"
        )
