"""The sim/live runtime seam.

Every protocol agent (:mod:`repro.core`, :mod:`repro.protocols`,
:mod:`repro.migration`) and the node substrate talk to their execution
environment through the small surface defined here — a clock, a
scheduler, and a message transport — never through the discrete-event
kernel directly.  Two environments implement it:

* :class:`repro.sim.kernel.Simulator` + :class:`repro.network.transport.Transport`
  — virtual time, deterministic event ordering, the paper's cost
  accounting (every published figure runs here);
* :class:`repro.live.scheduler.LiveScheduler` + :class:`repro.live.transport.LiveTransport`
  — wall-clock asyncio, one task per node, optionally real UDP sockets.
  The live transport is the simulated one with another wire under it:
  there is one send implementation, so both environments agree on who
  receives a message and what it costs.

The contract is structural (:class:`typing.Protocol`): both schedulers
satisfy it without inheriting from it (what they do inherit is the
kernel's own :class:`~repro.sim.kernel.Agenda`), so the hot paths carry
no abstraction cost, and the agents are byte-shared between both runtimes —
the import-isolation test pins that ``import repro.core`` never pulls in
``repro.sim.kernel``.

This module owns the two leaf types both environments share:
:class:`Priority` (intra-timestamp ordering bands; re-exported by
:mod:`repro.sim.events`) and :class:`Delivery` (the handler-facing
message record; re-exported by :mod:`repro.network.transport`).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Protocol,
    runtime_checkable,
)

__all__ = [
    "NodeId",
    "Priority",
    "Delivery",
    "TimerHandle",
    "PeriodicHandle",
    "TraceAPI",
    "Clock",
    "SchedulerAPI",
    "TransportAPI",
]

#: node identifiers are plain ints in both runtimes (mirrors
#: :data:`repro.network.topology.NodeId` without importing it — this
#: module sits below every other repro package)
NodeId = int


class Priority:
    """Symbolic intra-timestamp ordering classes.

    Lower values fire first.  The bands are deliberately sparse so callers
    can slot custom priorities in between without renumbering.  In the
    simulator the band is a hard ordering guarantee between same-instant
    events; the live runtime honours it best-effort (callbacks landing on
    the same loop iteration dispatch in band order).
    """

    #: State mutations (queue drains, resource releases) happen first so
    #: that any message handler at the same instant observes fresh state.
    STATE = 0
    #: Message deliveries and protocol handlers.
    MESSAGE = 10
    #: Workload arrivals — a task arriving at time *t* sees all messages
    #: delivered at *t*.
    ARRIVAL = 20
    #: Periodic bookkeeping (metric sampling, trace flushes) runs last.
    SAMPLING = 90

    DEFAULT = MESSAGE


class Delivery(NamedTuple):
    """What a message handler receives: the payload plus delivery metadata.

    A ``NamedTuple`` rather than a frozen dataclass: one of these is
    built per delivered message (the dominant allocation of a flood-heavy
    run) and tuple construction skips the per-field
    ``object.__setattr__`` a frozen dataclass pays.  Timestamps are in
    the runtime's own clock domain — simulated seconds under the kernel,
    scaled wall seconds under the live runtime.
    """

    src: NodeId
    dst: NodeId
    kind: str
    payload: Any
    sent_at: float
    delivered_at: float


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable one-shot schedule returned by ``at``/``after``.

    ``time`` is the absolute (runtime-clock) instant the callback is
    aimed at — the threshold monitor reads it to decide whether a pending
    crossing can be kept.  ``cancel`` is idempotent.
    """

    time: float

    def cancel(self) -> None: ...


@runtime_checkable
class PeriodicHandle(Protocol):
    """A repeating schedule returned by ``periodic``: the kernel's
    :class:`~repro.sim.kernel.PeriodicTimer` on both clocks, whose
    ``interval`` an adaptive protocol may reassign between firings."""

    @property
    def interval(self) -> float: ...

    @property
    def stopped(self) -> bool: ...

    def stop(self) -> None: ...


class TraceAPI(Protocol):
    """Structured event sink (``sim.trace``).  ``enabled`` gates the
    cost of building the record at the call site."""

    enabled: bool

    def emit(self, time: float, category: str, **fields: Any) -> Any: ...


class Clock(Protocol):
    """The one-property contract timing code needs."""

    @property
    def now(self) -> float:
        """Current time in runtime seconds."""
        ...


class SchedulerAPI(Protocol):
    """Clock + callback scheduling: what components call ``sim``.

    Implemented by :class:`repro.sim.kernel.Simulator` (virtual time)
    and :class:`repro.live.scheduler.LiveScheduler` (scaled wall time).
    ``streams`` yields named :class:`numpy.random.Generator` instances
    with the common-random-numbers layout of
    :class:`repro.sim.rng.RandomStreams`.

    Both run every event in ``(time, priority, seq)`` order, the
    simulator at its instant and the live scheduler as soon as the wall
    clock reaches it.
    """

    trace: TraceAPI
    streams: Any

    @property
    def now(self) -> float: ...

    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.DEFAULT,
    ) -> TimerHandle: ...

    def after(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.DEFAULT,
    ) -> TimerHandle: ...

    def cancel(self, ev: Optional[TimerHandle]) -> None: ...

    def periodic(
        self,
        interval: float,
        fn: Callable[[], Any],
        *,
        phase: float = 0.0,
        priority: int = Priority.DEFAULT,
    ) -> PeriodicHandle: ...

    def add_finalizer(self, fn: Callable[[], None]) -> None: ...


class TransportAPI(Protocol):
    """The unicast/flood/multicast surface agents send through.

    One send implementation, two wires:
    :class:`repro.network.transport.Transport` decides receivers, hops,
    losses and the paper's cost accounting and delivers through the
    scheduler; :class:`repro.live.transport.LiveTransport` subclasses it
    and replaces only the delivery (the same event a wire latency later,
    or a real UDP datagram).  ``topo`` exposes at least
    ``neighbors(node)`` / ``has_node(node)`` / ``nodes()`` — the calls
    protocol scoping makes.
    """

    topo: Any

    def register(
        self, node: NodeId, kind: str, handler: Callable[[Delivery], None]
    ) -> None: ...

    def unregister(self, node: NodeId) -> None: ...

    def unicast(self, src: NodeId, dst: NodeId, kind: str, payload: Any) -> bool: ...

    def flood(
        self, src: NodeId, kind: str, payload: Any, *, neighbors_only: bool = False
    ) -> List[NodeId]: ...

    def multicast(
        self,
        src: NodeId,
        dests: Iterable[NodeId],
        kind: str,
        payload: Any,
        *,
        cost: Optional[float] = None,
    ) -> List[NodeId]: ...
