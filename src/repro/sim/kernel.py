"""The discrete-event simulation kernel.

:class:`Agenda` is what a scheduler is on either clock: the event heap
with its :class:`~repro.sim.events.Event` handles, tracked cancellation,
the periodic and shared-round timers, finalizers, the random streams and
an optional trace sink.  :class:`Simulator` adds the virtual clock and
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

Cohort batching (the single-run fast path): events sharing the full
``(time, priority)`` key form a *cohort* and execute in seq order either
way, so a component may register a batch hook for one of its callbacks
(:meth:`Simulator.register_batch`) and receive a whole same-instant run
of that callback's argument tuples in one call — one Python call for a
10k-receiver flood instead of 10k loop iterations.  A cohort reaches the
hook one of two ways.  The drain *discovers* it: the run loop pops an
event of the callback and collects the consecutive same-key entries
behind it.  Or the sender *pre-forms* it: :meth:`Simulator.after_each`
posts ``n`` calls as one agenda entry, so a flood that holds its
receivers in its hand costs one heap push and one pop instead of ``n``
of each.  A pre-formed entry is indistinguishable from the ``n`` scalar
events it stands for — it takes their ``n`` seqs, counts ``n`` toward
``len(sim.queue)``, ``events_executed`` and the ``max_events`` budget
(a budget ending inside it leaves the rest on the agenda under the
original keys), and merges with adjacent entries exactly as they would.
Only *consecutive* same-callback events are grouped, cancellations are
honoured at drain time, and events a batch member schedules at the same
instant carry later seqs (they run after the cohort, exactly as in the
scalar path) — so the executed sequence, the trace, ``events_executed``
and ``cohort_stats()`` are bit-identical to scalar execution.  That
equivalence is pinned by ``tests/sim/test_cohort_batching.py`` against
the scalar lockstep reference, ``set_cohort_batching(False)``, under
which ``after_each`` is the ``n`` scalar pushes.  A profiled run is the
same loop with a ``perf_counter`` bracket around each dispatch.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .events import _INF, Event, EventQueue, Priority
from .rng import RandomStreams
from .trace import Tracer

__all__ = [
    "Agenda",
    "Simulator",
    "PeriodicTimer",
    "RoundDriver",
    "RoundMembership",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, re-running, …)."""


class _Cohort:
    """What the kernel knows about one batched callback.

    ``Simulator._batch_hooks`` maps the scalar callback ``fn`` to this
    record — and the record to itself, because it is also the
    ``Event.fn`` of a pre-formed cohort's agenda entry (whose
    ``Event.args`` is then the list of argument tuples).  The run loop's
    one ``hooks.get(ev.fn)`` probe therefore finds both kinds, tells a
    pre-formed entry by ``hook is ev.fn``, and costs a callback without
    a batch hook nothing new.  Pre-formed entries are the simulator's
    own: only :meth:`Simulator.run` pops them (``EventQueue.pop`` would
    count one event where the entry stands for n).
    """

    __slots__ = ("fn", "batch_fn")

    def __init__(
        self, fn: Callable[..., Any], batch_fn: Callable[[List[tuple]], Any]
    ) -> None:
        self.fn = fn
        self.batch_fn = batch_fn


class PeriodicTimer:
    """A self-rescheduling timer created by :meth:`Simulator.periodic`.

    The callback runs every ``interval`` seconds until :meth:`stop` is
    called or the simulation horizon is reached.  The interval may be
    changed between firings via :attr:`interval` (used by adaptive
    protocols).
    """

    __slots__ = (
        "sim", "fn", "interval", "_event", "_stopped", "jitter_rng", "jitter",
        "priority",
    )

    def __init__(
        self,
        sim: "Agenda",
        interval: float,
        fn: Callable[[], Any],
        *,
        phase: float = 0.0,
        jitter: float = 0.0,
        jitter_stream: Optional[str] = None,
        priority: int = Priority.DEFAULT,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.fn = fn
        self.interval = float(interval)
        self.jitter = float(jitter)
        self.jitter_rng = sim.streams.stream(jitter_stream) if jitter_stream else None
        self.priority = priority
        self._stopped = False
        self._event: Optional[Event] = sim.after(
            phase + self._next_gap(), self._fire, priority=priority
        )

    def _next_gap(self) -> float:
        gap = self.interval
        if self.jitter > 0.0 and self.jitter_rng is not None:
            gap += float(self.jitter_rng.uniform(-self.jitter, self.jitter))
            gap = max(gap, 1e-9)
        return gap

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
                due + self._next_gap(), self._fire, priority=self.priority
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


class RoundMembership:
    """Handle returned by :meth:`RoundDriver.join` / ``shared_periodic``.

    API-compatible with :class:`PeriodicTimer` for the lifecycle calls
    protocols actually make (``stop()``, ``stopped``); the interval is
    read-only — a member that needs to adapt its period must leave the
    shared round and run a private timer.
    """

    __slots__ = ("driver", "_cell", "_stopped")

    def __init__(self, driver: "RoundDriver", cell: List[Optional[Callable]]) -> None:
        self.driver = driver
        self._cell = cell
        self._stopped = False

    @property
    def interval(self) -> float:
        return self.driver.interval

    def stop(self) -> None:
        """Leave the round; the callback never fires again."""
        if not self._stopped:
            self._stopped = True
            self._cell[0] = None
            self.driver._note_leave()

    @property
    def stopped(self) -> bool:
        return self._stopped


class RoundDriver:
    """One kernel event per round shared by N same-interval members.

    Per-node periodic timers are the dominant heap traffic of
    synchronized protocol rounds at scale: 10k nodes on a 1 s period
    push 10k heap entries per simulated second just to wake up.  A
    round driver collapses that to a single self-rescheduling event;
    members fire within the round in *join order* (callers join in node
    order, making the canonical order explicit), which is exactly the
    seq order N individual timers created in the same order would fire
    in — so for phase-aligned timers the executed sequence is unchanged.

    Members joining mid-run fire from the next shared round boundary
    (the driver owns the round clock — that is the aggregation
    contract).  Leaving is O(1) lazy; the member table compacts when
    more than half the slots are dead.  A driver whose last member
    leaves cancels its event and re-arms on the next join.
    """

    __slots__ = ("sim", "interval", "priority", "_members", "_live", "_event")

    def __init__(
        self,
        sim: "Agenda",
        interval: float,
        *,
        phase: float = 0.0,
        priority: int = Priority.DEFAULT,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval = float(interval)
        self.priority = priority
        self._members: List[List[Optional[Callable[[], Any]]]] = []
        self._live = 0
        self._event: Optional[Event] = sim.after(
            phase + self.interval, self._fire, priority=priority
        )

    @property
    def members(self) -> int:
        """Live member count (diagnostics)."""
        return self._live

    @property
    def due(self) -> Optional[float]:
        """The instant of the round now firing (between rounds, the next).

        A member that reads it takes its instant from the schedule — the
        float the simulator's clock reads — even when a live round runs late.
        """
        return None if self._event is None else self._event.time

    def join(self, fn: Callable[[], Any]) -> RoundMembership:
        """Add ``fn`` to the round; it fires after every later boundary."""
        if self._live == 0 and self._event is None:
            # dormant driver: re-arm from now, like a fresh timer
            self._event = self.sim.after(
                self.interval, self._fire, priority=self.priority
            )
        # Each member lives in its own one-slot cell shared with the
        # membership handle, so table compaction never invalidates a
        # handle — stop() blanks the cell wherever it currently sits.
        cell: List[Optional[Callable[[], Any]]] = [fn]
        self._members.append(cell)
        self._live += 1
        return RoundMembership(self, cell)

    def _note_leave(self) -> None:
        self._live -= 1
        if self._live == 0:
            if self._event is not None:
                self.sim.cancel(self._event)
                self._event = None
            self._members.clear()
        elif len(self._members) > 8 and self._live * 2 < len(self._members):
            # Join order is the canonical fire order; filtering preserves it.
            self._members = [c for c in self._members if c[0] is not None]

    def _fire(self) -> None:
        if self._live == 0:
            self._event = None
            return
        due = self._event.time  # the next round chains on it, as a timer's
        for cell in self._members:
            fn = cell[0]
            if fn is not None:
                fn()
        if self._live > 0:
            self._event = self.sim.at(
                due + self.interval, self._fire, priority=self.priority
            )
        else:
            self._event = None


class Agenda:
    """The event agenda and timers both schedulers share.

    Everything here is clock-agnostic: it reads the subclass's ``now``
    only through ``after``, which :class:`PeriodicTimer` and
    :class:`RoundDriver` call to arm; they re-arm with ``at``, on the
    instant the firing was due.  A subclass supplies ``now``, ``at``,
    ``after`` and ``run``, and brackets its run loop with
    :meth:`_begin_run` / :meth:`_end_run`.

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
        #: (interval, phase, priority) -> shared round driver
        self._round_drivers: Dict[Tuple[float, float, int], RoundDriver] = {}

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
        jitter: float = 0.0,
        jitter_stream: Optional[str] = None,
        priority: int = Priority.DEFAULT,
    ) -> PeriodicTimer:
        """Install a :class:`PeriodicTimer` firing every ``interval`` s."""
        return PeriodicTimer(
            self,
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
        """Join ``fn`` to the shared :class:`RoundDriver` for this cadence.

        All callers with the same ``(interval, phase, priority)`` share
        one kernel event per round and fire in join order — the timer
        aggregation that keeps synchronized protocol rounds at one heap
        entry per round instead of one per node.  Unlike
        :meth:`periodic` there is no jitter and no per-member interval
        mutation; members needing either keep a private timer.
        """
        key = (float(interval), float(phase), priority)
        driver = self._round_drivers.get(key)
        if driver is None:
            driver = RoundDriver(self, interval, phase=phase, priority=priority)
            self._round_drivers[key] = driver
        return driver.join(fn)

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
        #: scalar callback -> its :class:`_Cohort`, and each ``_Cohort``
        #: -> itself (see :meth:`register_batch`); an empty dict keeps the
        #: hot loop's batching probe one falsy test
        self._batch_hooks: Dict[Any, _Cohort] = {}
        self._batching = True
        # Cohort-batching accounting (see :meth:`cohort_stats`): updated
        # once per *cohort* in the batched dispatch branch only, so the
        # scalar path — and any run without batch hooks — pays nothing.
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
        ``fn`` has no batch hook or batching is off.  Otherwise the whole
        pre-formed cohort goes on the agenda as one entry that stands for
        its ``n`` events in every count the kernel keeps (see the module
        docstring), so the sender pays one heap push and the run loop one
        pop whatever ``n`` is.  No handle comes back: like the scalar
        deliveries it replaces, nothing may cancel a member.
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
        """One agenda entry for the events ``seq .. seq + len(argsets) - 1``.

        A cohort of one is the scalar event itself, so a lone delivery
        takes the scalar dispatch (and stays out of ``cohort_stats``)
        exactly as if it had been pushed by ``after``.
        """
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

        When the run loop pops an event whose callback equals ``fn`` and
        the next agenda entries share its exact ``(time, priority)`` key
        *and* callback, the whole consecutive run is drained in seq
        order and handed to ``batch_fn`` as a list of argument tuples —
        one call instead of N.  The contract on ``batch_fn``: it must be
        observationally identical to ``for args in cohort: fn(*args)``,
        re-checking any per-item guards (liveness, cancellation flags in
        component state) exactly as the scalar body does, because
        earlier items may mutate state later items depend on.

        ``fn`` is matched by equality, so a bound method registers all
        schedules of that method on that instance.  A sender that already
        holds such a run posts it whole with :meth:`after_each`.

        One structural requirement: events of ``fn`` must never be
        *cancelled by a same-cohort member* — the cohort's arguments are
        captured when the cohort is drained, so a cancellation landing
        mid-batch (which the scalar pop loop would honour) cannot be
        seen.  Cancellations from anywhere else are honoured exactly.
        Message deliveries satisfy this trivially: nothing holds their
        event handles.
        """
        hook = _Cohort(fn, batch_fn)
        self._batch_hooks[fn] = self._batch_hooks[hook] = hook

    def set_cohort_batching(self, enabled: bool) -> None:
        """Force the scalar path (``False``) — the lockstep reference the
        equivalence tests compare the batched loop against.

        Pre-formed cohorts already on the agenda become the scalar
        events they stand for, under the seqs they hold, so the scalar
        loop never meets one.
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

        Returns cumulative counts since construction: how many cohorts
        were drained, how many events they covered, that count as a
        share of all executed events (0.0 before anything runs), and a
        ``{cohort size -> occurrences}`` histogram.
        """
        executed = self._events_executed
        return {
            "cohorts": self._cohorts,
            "batched_events": self._batched_events,
            "batched_share": (
                self._batched_events / executed if executed else 0.0
            ),
            "size_histogram": dict(sorted(self._cohort_sizes.items())),
        }

    def _drain_cohort(self, entry: tuple, hook: _Cohort, budget) -> List[tuple]:
        """Collect the consecutive same-``(time, priority, fn)`` cohort.

        ``entry`` (already popped) leads the cohort; every following live
        agenda entry with the identical key and an equal callback is
        popped in seq order, up to ``budget`` items total.  A pre-formed
        entry — leading or following — contributes all the events it
        stands for, so a cohort is the same list whether the sender
        posted it whole, event by event, or some of each.  Cancelled
        records inside the run are discarded exactly as the scalar pop
        loop would.
        """
        time, priority, _seq, ev = entry
        queue = self.queue
        heap = queue._heap
        fn = hook.fn
        cohort = self._open_cohort(entry, budget) if ev.fn is hook else [ev.args]
        n = len(cohort)
        while heap and n < budget:
            top = heap[0]
            if top[0] != time or top[1] != priority:
                break
            nxt = top[3]
            if nxt._cancelled:
                heappop(heap)
                if queue._cancelled_pending > 0:
                    queue._cancelled_pending -= 1
                continue
            if nxt.fn is hook:
                heappop(heap)
                queue._live -= 1
                cohort += self._open_cohort(top, budget - n)
                n = len(cohort)
                continue
            if nxt.fn != fn:
                break
            heappop(heap)
            queue._live -= 1
            cohort.append(nxt.args)
            n += 1
        return cohort

    def _open_cohort(self, entry: tuple, room) -> List[tuple]:
        """The argument tuples of a popped pre-formed ``entry``.

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
        hooks = self._batch_hooks if self._batching else None
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
                if hooks:
                    hook = hooks.get(ev.fn)
                    if hook is not None and (
                        hook is ev.fn  # a pre-formed cohort (after_each)
                        or (
                            heap
                            and heap[0][0] == entry[0]
                            and heap[0][1] == entry[1]
                        )
                    ):
                        cohort = self._drain_cohort(entry, hook, budget)
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
