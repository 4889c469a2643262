"""Event primitives for the discrete-event simulation kernel.

The kernel (:mod:`repro.sim.kernel`) operates on a binary-heap agenda of
:class:`Event` records.  Events are ordered by ``(time, priority, seq)``:

* ``time`` — simulated seconds (float, monotonically non-decreasing),
* ``priority`` — tie-breaker between events scheduled for the same instant
  (lower fires first); protocol code uses this to guarantee, e.g., that a
  resource-state update is visible before a message that reads it,
* ``seq`` — global insertion order, making execution fully deterministic
  even for identical ``(time, priority)`` pairs.

Fast path: the heap stores ``(time, priority, seq, event)`` tuples rather
than bare :class:`Event` objects.  ``seq`` is unique, so tuple comparison
never reaches the event and every heap sift runs on C-level tuple
compares instead of a Python ``__lt__`` — the ordering key is the exact
same triple, so pop order is bit-identical to the object-heap version
(pinned by the golden-trace tests).

Cancellation is O(1) lazy: :meth:`Event.cancel` flips a flag and the kernel
skips the record when it is popped.  This is the standard approach for
simulations with many timer resets (REALTOR resets HELP timers constantly)
because it avoids O(n) heap surgery.

Lazy cancellation has one pathology at scale: a workload that cancels
most of what it schedules (timer resets, queue withdrawals) leaves the
heap dominated by dead entries, and every sift pays for them.
:meth:`EventQueue.cancel_event` therefore counts tracked cancellations
and :meth:`EventQueue.compact` rebuilds the heap — dropping every
cancelled record in one O(n) pass — once dead entries exceed half the
heap.  Compaction preserves the ``(time, priority, seq)`` keys, so pop
order is untouched.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

# Priority lives on the runtime seam (shared with the live runtime);
# re-exported here because every kernel-facing call site historically
# imports it from repro.sim.events.
from ..runtime.api import Priority

__all__ = ["Event", "EventQueue", "Priority"]

_INF = float("inf")

#: below this heap size compaction is never worth the rebuild
_COMPACT_MIN_HEAP = 64


class Event:
    """A scheduled callback.

    Instances are created by :meth:`EventQueue.schedule` (or the kernel's
    ``at``/``after`` helpers) and should not be constructed directly.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "_cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self._cancelled = False

    # Heap ordering ---------------------------------------------------

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    # API ---------------------------------------------------------------

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent, O(1))."""
        self._cancelled = True
        # Drop references eagerly; a cancelled timer may otherwise pin a
        # whole host object graph until the heap entry is popped.
        self.fn = _noop
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6g} p={self.priority} {name} [{state}]>"


def _noop(*_args: Any) -> None:
    """Replacement callable for cancelled events."""


class EventQueue:
    """Deterministic priority queue of :class:`Event` records.

    A thin wrapper around :mod:`heapq` that owns the global sequence
    counter.  Separated from the kernel so it can be unit- and
    property-tested in isolation.
    """

    __slots__ = ("_heap", "_next_seq", "_live", "_cancelled_pending")

    def __init__(self) -> None:
        # entries are (time, priority, seq, Event); seq uniqueness keeps
        # tuple comparison from ever touching the Event itself
        self._heap: list[tuple] = []
        self._next_seq = 0
        self._live = 0
        #: tracked-cancelled entries still on the heap (a raw
        #: ``Event.cancel`` is invisible to it; it only drives the
        #: compaction heuristic, never correctness)
        self._cancelled_pending = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.DEFAULT,
    ) -> Event:
        """Insert a callback at absolute simulated ``time``.

        Returns the :class:`Event` handle, which the caller may
        :meth:`~Event.cancel`.
        """
        if time != time or time == _INF:  # NaN / inf guard
            raise ValueError(f"non-finite event time: {time!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        ev = Event(time, priority, seq, fn, args)
        heappush(self._heap, (time, priority, seq, ev))
        self._live += 1
        return ev

    def _drop_cancelled_head(self) -> None:
        """Discard cancelled records until the head is live (or none is left)."""
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heappop(heap)
            if self._cancelled_pending > 0:
                self._cancelled_pending -= 1

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty."""
        return self.pop_until(None)

    def pop_until(
        self,
        limit: Optional[float],
        only: Optional[Callable[[Callable[..., Any]], bool]] = None,
    ) -> Optional[Event]:
        """Pop the earliest live event with ``time <= limit``.

        Returns ``None`` when the agenda is empty or the next live event
        lies beyond ``limit`` (which is left on the heap) — or, given
        ``only``, when ``only(event.fn)`` is false for it.  The kernel's
        hot loop inlines this; the live scheduler calls it.
        """
        self._drop_cancelled_head()
        heap = self._heap
        if not heap or (limit is not None and heap[0][0] > limit):
            return None
        if only is not None and not only(heap[0][3].fn):
            return None
        self._live -= 1
        return heappop(heap)[3]

    def peek_time(
        self, skip: Optional[Callable[[Callable[..., Any]], bool]] = None
    ) -> Optional[float]:
        """Time of the earliest live event without removing it.

        With ``skip``, of the earliest live event whose callback ``skip``
        does not match (``None`` when there is none).  A best-first walk
        of the heap from its root: it visits only the cancelled or
        skipped entries ordered ahead of the answer, plus their children.
        """
        self._drop_cancelled_head()
        heap = self._heap
        if not heap:
            return None
        if skip is None:
            return heap[0][0]
        n = len(heap)
        frontier = [(heap[0][0], 0)]
        while frontier:
            time, i = heappop(frontier)
            ev = heap[i][3]
            if not ev._cancelled and not skip(ev.fn):
                return time
            for child in (2 * i + 1, 2 * i + 2):
                if child < n:
                    heappush(frontier, (heap[child][0], child))
        return None

    def cancel_event(self, ev: Event) -> None:
        """Cancel ``ev`` with bookkeeping (preferred over ``ev.cancel()``).

        Same O(1) lazy cancellation, plus the live count stays exact and
        the dead-entry counter feeds the compaction heuristic: once
        tracked-cancelled entries exceed half the heap the whole agenda
        is rebuilt without them.  Components cancel through
        :meth:`Agenda.cancel <repro.sim.kernel.Agenda.cancel>`, which
        lands here.
        """
        if ev._cancelled:
            return
        ev.cancel()
        if self._live > 0:
            self._live -= 1
        self._cancelled_pending += 1
        if (
            len(self._heap) >= _COMPACT_MIN_HEAP
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            self.compact()

    def compact(self) -> None:
        """Rebuild the heap without cancelled entries (O(n)).

        Entry keys are unchanged, so pop order after compaction is
        bit-identical to popping through the dead records.  The rebuild
        is *in place* (slice assignment, never rebinding ``_heap``): the
        kernel's hot loop aliases the heap list for the whole run, and a
        rebind mid-run would strand it on the orphaned list.
        """
        self._heap[:] = [e for e in self._heap if not e[3]._cancelled]
        heapify(self._heap)
        self._cancelled_pending = 0

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0
