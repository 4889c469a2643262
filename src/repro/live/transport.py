"""Live message transport: one send implementation, two wires.

:class:`LiveTransport` *is* a :class:`~repro.network.transport.Transport`.
Who is up, who is reachable, who receives a flood, how many hops a
unicast travels, what an impairment engine does to it, what it costs and
which handler finally runs are all decided by the inherited code — the
same code the simulator runs — so the two runtimes cannot disagree about
a partitioned overlay or a lossy link.  This module keeps only the wire
a surviving delivery crosses, in two interchangeable backends:

* ``inproc`` — every node is its **own asyncio task** draining a
  mailbox queue; a delivery enqueues onto the destination's mailbox and
  the node task hands it to the inherited ``_deliver``.  This is the
  default: no serialisation, no sockets, deterministic enough for the
  live-vs-sim equivalence tests.
* ``udp`` — every node binds a real UDP datagram endpoint on the
  loopback interface; a pickled envelope crosses the kernel socket
  layer while the payload object rides a per-message side table.
  Exercises a genuine wire (socket scheduling, kernel buffering)
  while staying single-machine.  The side table is deliberate, not a
  shortcut: the paper's admission protocol settles a migration by the
  *responder mutating the requester's Task object* (speculative
  reservation), a shared-memory contract the simulator provides by
  reference.  Serialising the payload would hand the responder a copy
  and silently break settlement, so the envelope carries only a token
  and object identity is preserved in-process.

A delivery the inherited send path delays (per-hop latency, impairment
jitter, a duplicate's offset) is put on the wire by the live scheduler
when the delay is up, and the ``inproc`` wire's own ``latency`` (Section
6's switched-Ethernet one-way delay, 0.2 virtual ms unless given) is
added to that delay — *before* the mailbox, so every wait of the runtime
is on the scheduler's one agenda and messages to one receiver are
pipelined behind a propagation delay.  A node task only drains its FIFO
mailbox: it must never await what the agenda resolves (``aclose`` hangs).
"""

from __future__ import annotations

import asyncio
import pickle
from typing import Any, Callable, Dict, Optional

from ..network.topology import NodeId, Topology
from ..network.transport import Transport

from .scheduler import LiveScheduler

__all__ = ["LiveTransport", "BACKENDS"]

BACKENDS = ("inproc", "udp")

#: one-way latency of the Section 6 LAN (100 Mb/s switched Ethernet),
#: virtual seconds — the default of ``latency``
LAN_LATENCY = 0.0002

#: mailbox sentinel that terminates a node task
_SHUTDOWN = object()


class _NodeEndpoint(asyncio.DatagramProtocol):
    """Loopback UDP endpoint of one node (``udp`` backend)."""

    def __init__(self, transport_ref: "LiveTransport", node: NodeId) -> None:
        self.ref = transport_ref
        self.node = node

    def datagram_received(self, data: bytes, addr) -> None:
        try:
            src, kind, token, sent_at = pickle.loads(data)
        except Exception:
            self.ref.dropped_messages += 1
            return
        try:
            payload = self.ref._payloads.pop(token)
        except KeyError:
            # Duplicate or forged datagram: no payload to deliver.
            self.ref.dropped_messages += 1
            return
        self.ref._deliver(src, self.node, kind, payload, sent_at)


class LiveTransport(Transport):
    """A :class:`~repro.network.transport.Transport` over a real wire.

    Takes ``Transport``'s parameters (``sim`` is the live scheduler:
    clock + virtual/wall conversion) plus:

    backend:
        ``"inproc"`` (default) or ``"udp"`` — see the module docstring.
    latency:
        One-way delay of the ``inproc`` wire, virtual seconds (``None``
        = the 0.2 ms LAN default); ``udp`` takes what the sockets take.
    """

    def __init__(
        self,
        sim: LiveScheduler,
        topo: Topology,
        *,
        backend: str = "inproc",
        latency: Optional[float] = None,
        **transport_kwargs: Any,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
        super().__init__(sim, topo, **transport_kwargs)
        self.backend = backend
        self.latency = LAN_LATENCY if latency is None else float(latency)
        self._mailboxes: Dict[NodeId, asyncio.Queue] = {}
        self._node_tasks: Dict[NodeId, asyncio.Task] = {}
        self._endpoints: Dict[NodeId, tuple] = {}  # node -> (transport, addr)
        # udp backend: in-flight payload objects keyed by wire token (see
        # the module docstring for why payloads never get pickled).
        self._payloads: Dict[int, Any] = {}
        self._next_token = 0
        self._started = False
        self._closed = False

    # bench/trace.py wraps ``start``, ``aclose`` and these three through
    # ``vars(LiveTransport)`` so a live run's spans are told apart from a
    # simulated one's; they are the inherited functions, owned here by
    # name only.
    register = Transport.register
    unicast = Transport.unicast
    flood = Transport.flood

    # Lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bring up one mailbox task (or UDP endpoint) per overlay node."""
        if self._started:
            raise RuntimeError("transport already started")
        self._started = True
        nodes = self.topo.nodes()
        if nodes and self._hops_consumed():
            # a process's first hop count costs 10-18 ms (CSR build, numpy's
            # first use): pay it before the scheduler anchors virtual t=0
            self.live_router().distance(nodes[0], nodes[0])
        if self.backend == "inproc":
            for nid in nodes:
                queue: asyncio.Queue = asyncio.Queue()
                self._mailboxes[nid] = queue
                self._node_tasks[nid] = asyncio.create_task(
                    self._node_loop(nid, queue), name=f"live-node-{nid}"
                )
            return
        loop = asyncio.get_running_loop()
        for nid in nodes:
            transport, protocol = await loop.create_datagram_endpoint(
                lambda nid=nid: _NodeEndpoint(self, nid),
                local_addr=("127.0.0.1", 0),
            )
            addr = transport.get_extra_info("sockname")
            self._endpoints[nid] = (transport, addr)

    async def aclose(self) -> None:
        """Drain and tear down every node task / endpoint (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for queue in self._mailboxes.values():
            queue.put_nowait(_SHUTDOWN)
        if self._node_tasks:
            await asyncio.gather(
                *self._node_tasks.values(), return_exceptions=True
            )
        self._node_tasks.clear()
        self._mailboxes.clear()
        for transport, _addr in self._endpoints.values():
            transport.close()
        self._endpoints.clear()
        self._payloads.clear()

    @property
    def node_task_count(self) -> int:
        """Live mailbox tasks (diagnostics / clean-shutdown check)."""
        return sum(1 for t in self._node_tasks.values() if not t.done())

    # The wire -----------------------------------------------------------

    def _wire(self) -> tuple:
        # every live message crosses its own mailbox or datagram, so a
        # fan-out is posted message by message
        return self._post_on_wire, self._put, self._post_one_by_one

    def _post_on_wire(
        self, delay: float, put: Callable[..., None], *message: Any, priority: int
    ) -> None:
        """``sim.after`` plus the ``inproc`` wire's latency; no delay, no scheduler."""
        if self.backend == "inproc":
            delay += self.latency
        if delay > 0:
            self.sim.after(delay, put, *message, priority=priority)
        else:
            put(*message)

    def _put(
        self, src: NodeId, dst: NodeId, kind: str, payload: Any, sent_at: float
    ) -> None:
        """Put one message on the wire; the far side calls ``_deliver``."""
        if self.backend == "inproc":
            queue = self._mailboxes.get(dst)
            if queue is None:
                self.dropped_messages += 1
                return
            queue.put_nowait((src, kind, payload, sent_at))
            return
        endpoint = self._endpoints.get(dst)
        sender = self._endpoints.get(src)
        if endpoint is None or sender is None:
            self.dropped_messages += 1
            return
        token = self._next_token
        self._next_token += 1
        try:
            data = pickle.dumps((src, kind, token, sent_at))
        except Exception:
            self.dropped_messages += 1
            return
        self._payloads[token] = payload
        sender[0].sendto(data, endpoint[1])

    async def _node_loop(self, node: NodeId, queue: asyncio.Queue) -> None:
        """One node's mailbox task: one delivery at a time, FIFO, like a NIC."""
        while True:
            item = await queue.get()
            if item is _SHUTDOWN:
                break
            src, kind, payload, sent_at = item
            self._deliver(src, node, kind, payload, sent_at)
