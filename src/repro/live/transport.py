"""Live message transport: one send implementation, two wires.

:class:`LiveTransport` *is* a :class:`~repro.network.transport.Transport`.
Who is up, who is reachable, who receives a flood, how many hops a
unicast travels, what an impairment engine does to it, what it costs and
which handler finally runs are all decided by the inherited code — the
same code the simulator runs — so the two runtimes cannot disagree about
a partitioned overlay or a lossy link.  This module keeps only the wire
a surviving delivery crosses, in two interchangeable backends:

* ``inproc`` — the wire is the scheduler's agenda, as in the simulator:
  every delivery is one event, due after the delay the send path asked
  for plus ``latency`` (Section 6's switched-Ethernet one-way delay, 0.2
  virtual ms unless given), whose callback is the inherited ``_deliver``.
  The default: no serialisation, no sockets and no task besides the one
  running the scheduler, so per-receiver FIFO and same-instant order are
  the agenda's ``(time, priority, seq)`` key and a handler that raises
  stops the run, as it stops ``Simulator.run()``.  A zero delay is still
  an event: a handler never runs in its sender's stack.
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
  and object identity is preserved in-process.  A delay the send path
  asks for (per-hop latency, impairment jitter, a duplicate's offset)
  is an agenda event ahead of the ``sendto``.  A datagram's handler
  runs outside the agenda; what it reads through a ``Host`` retires the
  tasks due by the live clock first, as on ``inproc``.
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
        # read by _wire(), which the inherited constructor calls
        self.backend = backend
        self.latency = LAN_LATENCY if latency is None else float(latency)
        super().__init__(sim, topo, **transport_kwargs)
        self._endpoints: Dict[NodeId, tuple] = {}  # node -> (transport, addr)
        # udp backend: in-flight payload objects keyed by wire token (see
        # the module docstring for why payloads never get pickled).
        self._payloads: Dict[int, Any] = {}
        self._next_token = 0
        self._started = False

    # bench/trace.py wraps ``start``, ``aclose`` and these three through
    # ``vars(LiveTransport)`` so a live run's spans are told apart from a
    # simulated one's; they are the inherited functions, owned here by
    # name only.
    register = Transport.register
    unicast = Transport.unicast
    flood = Transport.flood

    # Lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bring up one UDP endpoint per overlay node (``inproc``: none)."""
        if self._started:
            raise RuntimeError("transport already started")
        self._started = True
        nodes = self.topo.nodes()
        if nodes and self._hops_consumed():
            # a process's first hop count costs 10-18 ms (CSR build, numpy's
            # first use): pay it before the scheduler anchors virtual t=0
            self.live_router().distance(nodes[0], nodes[0])
        if self.backend == "inproc":
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
        """Stop receiving and close every endpoint (idempotent)."""
        # A closed transport has no receivers: a delivery still on the
        # agenda is counted dropped by ``_deliver`` when it falls due.
        self._handlers.clear()
        for transport, _addr in self._endpoints.values():
            transport.close()
        self._endpoints.clear()
        self._payloads.clear()

    @property
    def node_task_count(self) -> int:
        """Node endpoints still open (the clean-shutdown check); ``inproc``
        has none — its nodes are entries of the scheduler's agenda."""
        return len(self._endpoints)

    # The wire -----------------------------------------------------------

    def _wire(self) -> tuple:
        # every live message is its own agenda event or datagram, so a
        # fan-out is posted message by message
        arrive = self._deliver if self.backend == "inproc" else self._sendto
        return self._post_on_wire, arrive, self._post_one_by_one

    def _post_on_wire(
        self, delay: float, arrive: Callable[..., None], *message: Any, priority: int
    ) -> None:
        """``sim.after``: ``inproc`` adds the wire's latency to the delay,
        a ``udp`` send with no delay needs no scheduler."""
        if self.backend == "inproc":
            delay += self.latency
        elif delay <= 0:
            arrive(*message)
            return
        self.sim.after(delay, arrive, *message, priority=priority)

    def _sendto(
        self, src: NodeId, dst: NodeId, kind: str, payload: Any, sent_at: float
    ) -> None:
        """Send one datagram; the far side's endpoint calls ``_deliver``."""
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
