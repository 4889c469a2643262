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

Cohort batching (the single-run fast path): an event is one call unless
its sender posted it whole.  :meth:`Simulator.after_each` posts ``n``
calls of a callback with a batch hook (:meth:`Simulator.register_batch`)
as one agenda entry, a *cohort*, which the run loop hands to the hook in
one call — one heap push, one pop and one Python call for a
10k-receiver flood.  The entry stands for its ``n`` scalar events: it
takes their ``n`` seqs and counts ``n`` toward ``len(sim.queue)``,
``events_executed`` and the ``max_events`` budget (a budget ending
inside it leaves the rest on the agenda under the original keys), so the
executed sequence, the trace and ``events_executed`` are bit-identical
to the scalar reference, ``set_cohort_batching(False)``, under which
``after_each`` is the ``n`` scalar pushes.  That equivalence is pinned
by ``tests/sim/test_cohort_batching.py``.  A profiled run is the same
loop with a ``perf_counter`` bracket around each dispatch.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional

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


class _Cohort:
    """A batched callback: the ``Event.fn`` of a cohort's agenda entry,
    whose ``Event.args`` is the list of argument tuples.

    Only :meth:`Simulator.run` pops such entries (``EventQueue.pop``
    would count one event where the entry stands for n).
    """

    __slots__ = ("fn", "batch_fn")

    def __init__(
        self, fn: Callable[..., Any], batch_fn: Callable[[List[tuple]], Any]
    ) -> None:
        self.fn = fn
        self.batch_fn = batch_fn


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
        #: scalar callback -> its :class:`_Cohort`; read by ``after_each``
        self._batch_hooks: Dict[Any, _Cohort] = {}
        self._batching = True
        # Cohort accounting (see :meth:`cohort_stats`), updated once per
        # dispatched cohort.
        self._cohorts = 0
        self._batched_events = 0
        self._cohort_sizes: Dict[int, int] = {}

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

    # Cohort batching ----------------------------------------------------

    def after_each(
        self,
        delay: float,
        fn: Callable[..., Any],
        argsets: Iterable[tuple],
        priority: int = Priority.DEFAULT,
    ) -> None:
        """Schedule ``fn(*args)`` for every ``args`` of ``argsets``, in order.

        Means exactly ``for args in argsets: self.after(delay, fn, *args,
        priority=priority)`` less the handles — and *is* that loop when
        ``fn`` has no batch hook or batching is off.  Otherwise the calls
        go on the agenda as one cohort entry (see the module docstring)
        that the run loop hands to the hook whole.  No handle comes back:
        nothing may cancel a member.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        time = self._now + delay
        argsets = list(argsets)
        hook = self._batch_hooks.get(fn) if self._batching else None
        if hook is None:
            for args in argsets:
                self._push(time, fn, args, priority)
            return
        if not argsets:
            return
        if time != time or time == _INF:  # NaN / inf guard, as in _push
            raise ValueError(f"non-finite event time: {time!r}")
        queue = self.queue
        seq = queue._next_seq
        queue._next_seq = seq + len(argsets)
        self._post_cohort(time, priority, seq, hook, argsets)

    def _post_cohort(
        self, time: float, priority: int, seq: int, hook: _Cohort,
        argsets: List[tuple],
    ) -> None:
        """One agenda entry for the events ``seq .. seq + len(argsets) - 1``;
        a cohort of one is the scalar event itself."""
        if len(argsets) == 1:
            ev = Event(time, priority, seq, hook.fn, argsets[0])
        else:
            ev = Event(time, priority, seq, hook, argsets)
        queue = self.queue
        heappush(queue._heap, (time, priority, seq, ev))
        queue._live += len(argsets)

    def register_batch(
        self,
        fn: Callable[..., Any],
        batch_fn: Callable[[List[tuple]], Any],
    ) -> None:
        """Install ``batch_fn`` as the cohort handler for callback ``fn``.

        :meth:`after_each` posts calls of ``fn`` (matched by equality, so
        a bound method covers that method on that instance) as one entry,
        which the run loop hands to ``batch_fn`` as a list of argument
        tuples.  ``batch_fn`` must be observationally identical to ``for
        args in cohort: fn(*args)``, re-checking per-item guards
        (liveness, handler tables) as the scalar body does, because
        earlier items may change state later items depend on.
        """
        self._batch_hooks[fn] = _Cohort(fn, batch_fn)

    def set_cohort_batching(self, enabled: bool) -> None:
        """Force the scalar path (``False``) — the lockstep reference the
        equivalence tests compare the batched loop against.

        Cohorts already on the agenda become the scalar events they
        stand for, under the seqs they hold, so the scalar loop never
        meets one.
        """
        self._batching = bool(enabled)
        if self._batching:
            return
        heap = self.queue._heap
        entries = []
        for entry in heap:
            time, priority, seq, ev = entry
            if ev.fn.__class__ is _Cohort:
                entries.extend(
                    (time, priority, seq + i, Event(time, priority, seq + i, ev.fn.fn, args))
                    for i, args in enumerate(ev.args)
                )
            else:
                entries.append(entry)
        heap[:] = entries  # in place: the run loop aliases the list
        heapify(heap)

    @property
    def cohort_batching(self) -> bool:
        return self._batching

    def cohort_stats(self) -> Dict[str, Any]:
        """Batched-dispatch accounting.

        Returns cumulative counts since construction: how many posted
        cohorts were dispatched, how many events they covered, and a
        ``{cohort size -> occurrences}`` histogram.
        """
        return {
            "cohorts": self._cohorts,
            "batched_events": self._batched_events,
            "size_histogram": dict(sorted(self._cohort_sizes.items())),
        }

    def _open_cohort(self, entry: tuple, room) -> List[tuple]:
        """The argument tuples of a popped cohort ``entry``.

        The pop counted one event off ``len(queue)``; the entry stood
        for ``len(argsets)``.  When only ``room`` of them fit the
        ``max_events`` budget the rest go back on the agenda under their
        original keys, to be delivered by the next ``run``.
        """
        time, priority, seq, ev = entry
        argsets = ev.args
        self.queue._live -= len(argsets) - 1
        if len(argsets) > room:
            self._post_cohort(time, priority, seq + room, ev.fn, argsets[room:])
            argsets = argsets[:room]
        return argsets

    # Execution ----------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        profile: Optional[Any] = None,
    ) -> float:
        """Execute events until the agenda is empty or ``until`` is reached.

        The clock is left at ``until`` (if given) even when the agenda
        drains early, so post-run metric normalisation by horizon is exact.
        Returns the final clock value.

        ``profile`` takes a :class:`~repro.obs.profiler.KernelProfiler`
        (duck-typed: ``record(fn, seconds, events)`` +
        ``finish_run(wall)``).  It times this loop, not a copy of it:
        each scalar dispatch and each cohort dispatch is bracketed with
        ``perf_counter``, so the shares it reports are those of the run
        that ships and the run itself is bit-identical either way.
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
            while budget > 0 and not self._stop_requested:
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
                if ev.fn.__class__ is _Cohort:
                    hook = ev.fn
                    cohort = self._open_cohort(entry, budget)
                    n = len(cohort)
                    if record is None:
                        hook.batch_fn(cohort)
                    else:
                        t0 = perf_counter()
                        hook.batch_fn(cohort)
                        record(hook.fn, perf_counter() - t0, n)
                    executed += n
                    budget -= n
                    self._cohorts += 1
                    self._batched_events += n
                    sizes = self._cohort_sizes
                    sizes[n] = sizes.get(n, 0) + 1
                    continue
                if record is None:
                    ev.fn(*ev.args)
                else:
                    t0 = perf_counter()
                    ev.fn(*ev.args)
                    record(ev.fn, perf_counter() - t0)
                executed += 1
                budget -= 1
            if until is not None and self._now < until and not self._stop_requested:
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
