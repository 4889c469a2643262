"""The discrete-event simulation kernel.

:class:`Agenda` is what a scheduler is on either clock: the event heap
with its :class:`~repro.sim.events.Event` handles, tracked cancellation,
the periodic timer, finalizers, the random streams and an optional trace
sink.  :class:`Simulator` adds the virtual clock and
the run loop that jumps it; :class:`repro.live.scheduler.LiveScheduler`
adds the wall clock and the run loop that waits for it.  Components
interact with either through a small surface:

* ``sim.now`` — current time (seconds),
* ``sim.at(t, fn, *args)`` / ``sim.after(dt, fn, *args)`` — schedule,
* ``sim.cancel(handle)`` — tracked cancel,
* ``sim.periodic(interval, fn)`` — self-rescheduling timer,
* ``sim.run(until=...)`` — drive the agenda.

The kernel is strictly sequential and deterministic: two runs with the same
seed and the same component construction order produce bit-identical event
sequences.  That property underpins the common-random-numbers comparison
methodology used by the figure experiments and is asserted by property
tests.

Each event is one callback call — ``events_executed``, ``len(sim.queue)``
and the ``max_events`` budget all count agenda events — and a profiled
run is the same loop with a ``perf_counter`` bracket around each
dispatch.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, List, Optional

from .events import _INF, Event, EventQueue, Priority
from .rng import RandomStreams
from .trace import Tracer

__all__ = [
    "Agenda",
    "Simulator",
    "PeriodicTimer",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, re-running, …)."""


class PeriodicTimer:
    """A self-rescheduling timer created by :meth:`Agenda.periodic`.

    The callback runs every ``interval`` seconds until :meth:`stop` is
    called or the simulation horizon is reached.  The interval may be
    changed between firings via :attr:`interval` (used by adaptive
    protocols).
    """

    __slots__ = ("sim", "fn", "interval", "_event", "_stopped", "priority")

    def __init__(
        self,
        sim: "Agenda",
        interval: float,
        fn: Callable[[], Any],
        *,
        phase: float = 0.0,
        priority: int = Priority.DEFAULT,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.fn = fn
        self.interval = float(interval)
        self.priority = priority
        self._stopped = False
        self._event: Optional[Event] = sim.after(
            phase + self.interval, self._fire, priority=priority
        )

    @property
    def due(self) -> Optional[float]:
        """The instant of the firing in progress (between firings, the next).

        A callback that reads it takes its instant from the schedule — the
        float the simulator's clock reads — even when a live firing runs late.
        """
        return None if self._event is None else self._event.time

    def _fire(self) -> None:
        if self._stopped:
            return
        # Chain on the instant this firing was due, not on the clock: the
        # same float in the simulator, and on the live scheduler a late
        # firing does not push every later one back.
        due = self._event.time
        self.fn()
        if not self._stopped:
            self._event = self.sim.at(
                due + self.interval, self._fire, priority=self.priority
            )

    def stop(self) -> None:
        """Cancel the timer; the callback never fires again."""
        self._stopped = True
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    @property
    def stopped(self) -> bool:
        return self._stopped


class Agenda:
    """The event agenda and timers both schedulers share.

    Everything here is clock-agnostic: it reads the subclass's ``now``
    only through ``after``, which :class:`PeriodicTimer` calls to arm; it
    re-arms with ``at``, on the instant the firing was due.  A subclass
    supplies ``now``, ``at``, ``after`` and ``run``, and brackets its run
    loop with :meth:`_begin_run` / :meth:`_end_run`.

    Parameters
    ----------
    seed:
        Root seed for :class:`~repro.sim.rng.RandomStreams`.
    trace:
        Optional :class:`~repro.sim.trace.Tracer`; when omitted a disabled
        tracer is installed so call sites never need ``if trace`` guards.
    """

    def __init__(self, seed: int = 0, trace: Optional[Tracer] = None) -> None:
        self.queue = EventQueue()
        self.streams = RandomStreams(seed)
        self.trace = trace if trace is not None else Tracer(enabled=False)
        self._running = False
        self._stop_requested = False
        self._events_executed = 0
        self._finalizers: List[Callable[[], None]] = []

    @property
    def events_executed(self) -> int:
        """Number of events fired so far (diagnostic)."""
        return self._events_executed

    # Scheduling --------------------------------------------------------

    def _push(
        self, time: float, fn: Callable[..., Any], args: tuple, priority: int
    ) -> Event:
        """Scheduling fast path behind every ``at`` and ``after``.

        Equivalent to :meth:`EventQueue.schedule` — same validation, same
        seq allocation, same heap entry — minus one call frame and the
        ``*args`` repacking.  Kept in lockstep with the queue so handles
        from either path are interchangeable.
        """
        if time != time or time == _INF:  # NaN / inf guard
            raise ValueError(f"non-finite event time: {time!r}")
        queue = self.queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        ev = Event(time, priority, seq, fn, args)
        heappush(queue._heap, (time, priority, seq, ev))
        queue._live += 1
        return ev

    def periodic(
        self,
        interval: float,
        fn: Callable[[], Any],
        *,
        phase: float = 0.0,
        priority: int = Priority.DEFAULT,
    ) -> PeriodicTimer:
        """Install a :class:`PeriodicTimer` firing every ``interval`` s."""
        return PeriodicTimer(self, interval, fn, phase=phase, priority=priority)

    def cancel(self, ev: Optional[Event]) -> None:
        """Tracked cancel: O(1), exact live count, feeds heap compaction.

        Components cancel through this, never ``Event.cancel()`` — both
        prevent the callback from firing, but only the tracked path
        keeps ``len(queue)`` exact and lets the agenda rebuild itself
        once cancelled entries dominate (see :meth:`EventQueue.compact
        <repro.sim.events.EventQueue.compact>`).  ``None`` is accepted so
        call sites can pass an optional handle unguarded.
        """
        if ev is not None:
            self.queue.cancel_event(ev)

    def add_finalizer(self, fn: Callable[[], None]) -> None:
        """Register a callback that runs once when ``run`` returns.

        Finalizers are run-or-clear: they execute exactly once when the
        surrounding ``run`` call ends, *including* when a callback
        raises — and they are always cleared, so a later ``run`` never
        replays finalizers queued for an earlier one.
        """
        self._finalizers.append(fn)

    # Execution ----------------------------------------------------------

    def _begin_run(self) -> None:
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stop_requested = False

    def _end_run(self) -> None:
        """The ``finally`` of every run loop: run-or-clear the finalizers."""
        self._running = False
        finalizers = self._finalizers[:]
        self._finalizers.clear()
        for fn in finalizers:
            fn()

    def stop(self) -> None:
        """Request ``run`` to return after the current event."""
        self._stop_requested = True


class Simulator(Agenda):
    """Sequential discrete-event simulator: an :class:`Agenda` on a
    virtual clock that jumps from event to event (same parameters)."""

    def __init__(self, seed: int = 0, trace: Optional[Tracer] = None) -> None:
        super().__init__(seed, trace)
        self._now = 0.0

    # Clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.DEFAULT,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6g}, clock already at {self._now:.6g}"
            )
        return self._push(time, fn, args, priority)

    def after(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.DEFAULT,
    ) -> Event:
        """Schedule ``fn(*args)`` after a non-negative ``delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self._push(self._now + delay, fn, args, priority)

    # Execution ----------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        profile: Optional[Any] = None,
    ) -> float:
        """Execute events until the agenda is empty or ``until`` is reached.

        When nothing is left due by ``until`` the clock is left at
        ``until``, even when the agenda drains early, so post-run metric
        normalisation by horizon is exact.  A run that ``max_events`` or
        :meth:`stop` ends with events still due by ``until`` leaves the
        clock at the last event it ran, so the next run fires them in
        time order.  Returns the final clock value.

        ``profile`` takes a :class:`~repro.obs.profiler.KernelProfiler`
        (duck-typed: ``record(fn, seconds)`` + ``finish_run(wall)``).  It
        times this loop, not a copy of it: each dispatch is bracketed
        with ``perf_counter``, so the shares it reports are those of the
        run that ships and the run itself is bit-identical either way.
        """
        if until is not None and until < self._now:
            raise SimulationError("until lies in the past")
        self._begin_run()
        budget = max_events if max_events is not None else float("inf")
        # Hot loop: the pop is inlined over the queue's heap (same logic as
        # EventQueue.pop_until) with locals bound outside the loop, saving a
        # method call plus attribute loads per event.  Pop order is the
        # tuple key (time, priority, seq) either way — bit-identical to the
        # method-call path, pinned by the golden-trace tests.
        queue = self.queue
        heap = queue._heap
        record = profile.record if profile is not None else None
        executed = 0
        wall_start = perf_counter()
        try:
            while executed < budget and not self._stop_requested:
                while heap and heap[0][3]._cancelled:
                    heappop(heap)
                    if queue._cancelled_pending > 0:
                        queue._cancelled_pending -= 1
                if not heap:
                    break
                entry = heap[0]
                if until is not None and entry[0] > until:
                    break
                heappop(heap)
                queue._live -= 1
                ev = entry[3]
                self._now = entry[0]
                if record is None:
                    ev.fn(*ev.args)
                else:
                    t0 = perf_counter()
                    ev.fn(*ev.args)
                    record(ev.fn, perf_counter() - t0)
                executed += 1
            if until is not None and self._now < until and not self._stop_requested:
                head = queue.peek_time()
                if head is None or head > until:  # nothing left due by then
                    self._now = until
        finally:
            if profile is not None:
                profile.finish_run(perf_counter() - wall_start)
            self._events_executed += executed
            self._end_run()
        return self._now

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Simulator t={self._now:.6g} pending={len(self.queue)} "
            f"executed={self._events_executed}>"
        )
