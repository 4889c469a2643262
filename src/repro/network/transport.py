"""Message transport with the paper's cost accounting.

Section 5 of the paper counts protocol overhead as follows:

* a *flood* (HELP invitation, or a PUSH advertisement "to the network")
  costs the number of links of the overlay — each link carries the message
  exactly once (reverse-path flooding / spanning broadcast),
* a *unicast* (PLEDGE reply, admission-control negotiation) costs the
  shortest-path hop count; the paper approximates this with the network
  average (4 on the 5x5 mesh).

:class:`Transport` implements delivery plus this accounting.  Delivery
honours the fault model: crashed nodes neither send nor receive, and
floods only reach the sender's connected component of the *live* overlay.

Latency is configurable (per-hop seconds).  The paper's simulation treats
dissemination as instantaneous relative to task times, so the default is
zero latency — messages are still delivered via the event queue (never by
synchronous call) so handler re-entrancy cannot occur.

Hop counts are computed on demand.  A point-to-point send asks the router
for a route length only when something consumes it — the ``HOPS`` charge,
a non-zero per-hop latency, or an installed impairment engine (per-link
loss compounds over the route).  Under the paper's own accounting (fixed
charge, instantaneous lossless delivery) the only fact a send needs is
"are both ends in the same live component?", which the liveness epoch's
component labels answer with a dict lookup; a scoped (``neighbors_only``)
flood likewise reads its charge from the epoch's per-component link
count, and its receivers from a per-source tuple cached for the epoch.
A run that charges by message never computes a BFS row, and a flood
inside an epoch evaluates no liveness or link predicate at send time
(delivery still re-checks the receiver).

The live overlay is built on demand too.  The epoch labels components by
walking the full overlay through the liveness and link predicates; the
live overlay as a :class:`Topology` of its own (a copy of every up node
and up link) and the router over it are made only for a consumer that
reads a route: the HOPS or MEAN charge, per-hop latency, an impairment
engine, or the per-receiver depths of a whole-overlay flood.  Under the
paper's accounting a run builds neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Iterable, List, Optional, TYPE_CHECKING

# Delivery and Priority live on the runtime seam (shared with the live
# transport); re-exported here for every existing import site.
from ..runtime.api import Delivery, Priority
from .impairments import NetworkImpairments
from .routing import UNREACHABLE, Router, bfs_distances
from .topology import NodeId, Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.api import SchedulerAPI

__all__ = ["Transport", "Delivery", "CostModel", "UnicastCostMode"]


class _EpochStructure:
    """Flood spanning structure for one liveness epoch.

    Built once per ``(topology version, liveness version)`` key and shared
    by every send until the next epoch: the live overlay's
    connected-component labelling, each component's sorted member tuple
    and link count, largest component first (ties by smallest id),
    walked over the full overlay
    through the predicates.  Per-source work inside an epoch collapses to
    a dict lookup plus one receiver-tuple build per flooding source and
    scope (``Transport._flood_cache`` for the whole overlay,
    ``Transport._scope_cache`` for direct neighbours — both dropped with
    the epoch); the per-message BFS/component scan that made 2.5k-node
    floods quadratic is gone.  ``comp_of`` doubles as the reachability
    oracle of unicasts whose hop count nothing consumes.  ``live`` and
    ``router`` stay ``None`` until a route is read
    (:meth:`Transport.live_router`).
    """

    __slots__ = ("key", "comp_of", "members", "links", "live", "router")

    def __init__(
        self,
        key: tuple,
        topo: Topology,
        is_up: Callable[[NodeId], bool],
        link_up: Optional[LinkPredicate],
    ) -> None:
        self.key = key
        self.live: Optional[Topology] = None
        self.router: Optional[Router] = None
        seen = set()
        found = []  # (members, link count), in increasing smallest id
        for start in topo.nodes():
            if start in seen or not is_up(start):
                continue
            seen.add(start)
            comp = [start]
            ends = 0  # live link ends: each link is met from both sides
            for cur in comp:  # grows while walked
                for nxt in topo.neighbors(cur):
                    if is_up(nxt) and (link_up is None or link_up(cur, nxt)):
                        ends += 1
                        if nxt not in seen:
                            seen.add(nxt)
                            comp.append(nxt)
            found.append((comp, ends // 2))
        found.sort(key=lambda c: -len(c[0]))  # stable: ties keep smallest id first
        self.comp_of: Dict[NodeId, int] = {}
        self.members: List[tuple] = []
        self.links: List[int] = []
        for ci, (comp, links) in enumerate(found):
            comp.sort()
            self.members.append(tuple(comp))
            self.links.append(links)
            for n in comp:
                self.comp_of[n] = ci


Handler = Callable[["Delivery"], None]
CostSink = Callable[[str, float], None]
LinkPredicate = Callable[[NodeId, NodeId], bool]


class UnicastCostMode(str, Enum):
    """How a unicast message is charged.

    ``HOPS``  — exact shortest-path hop count (our default; most faithful).
    ``MEAN``  — network mean shortest path (recomputed on topology change).
    ``FIXED`` — a constant supplied by the experiment (the paper uses 4).
    """

    HOPS = "hops"
    MEAN = "mean"
    FIXED = "fixed"


@dataclass
class CostModel:
    """Message-cost accounting parameters.

    ``flood_cost_override`` lets Figure 9's testbed model IP multicast
    on a LAN (one wire message regardless of group size).

    Only ``HOPS`` reads a route length; ``FIXED`` and ``MEAN`` price a
    unicast without one, and ``FIXED`` reads no router at all (it may be
    ``None``), which is what lets :class:`Transport` skip routing — and
    the live-overlay copy a router needs — under the paper's fixed charge.
    """

    unicast_mode: UnicastCostMode = UnicastCostMode.HOPS
    fixed_unicast_cost: float = 4.0
    flood_cost_override: Optional[float] = None

    def unicast_cost(
        self, router: Optional[Router], src: NodeId, dst: NodeId,
        hops: Optional[int] = None,
    ) -> float:
        """Charge for a delivered unicast.

        ``hops`` is the route length when the caller already holds it
        (:class:`Transport` does); without it HOPS mode asks ``router``.
        FIXED and MEAN never read a hop count.
        """
        if self.unicast_mode is UnicastCostMode.FIXED:
            return self.fixed_unicast_cost
        if self.unicast_mode is UnicastCostMode.MEAN:
            return router.mean_shortest_path()
        if hops is None:
            hops = router.distance(src, dst)
        return float(max(hops, 0))

    def dead_unicast_cost(
        self, router: Optional[Router], src: NodeId, dst: NodeId, hops: int
    ) -> float:
        """Charge for a message whose destination is dead or unreachable.

        The packets still traverse the network until dropped, so the
        attempted route is charged through the same mode switch as a
        delivered unicast.  ``hops`` is the attempted route length
        (``-1`` when no route exists at all); with no route the best
        attempt estimate is the mean path of what *is* reachable,
        floored at one hop — the packet at least leaves the source.
        """
        if self.unicast_mode is UnicastCostMode.FIXED:
            return self.fixed_unicast_cost
        if self.unicast_mode is UnicastCostMode.MEAN:
            return router.mean_shortest_path()
        if hops >= 0:
            return float(max(hops, 1))
        return max(router.mean_shortest_path(), 1.0)


class Transport:
    """Delivers messages over the live overlay and accounts their cost.

    Parameters
    ----------
    sim:
        The scheduler seam (simulation kernel, or any other
        :class:`~repro.runtime.api.SchedulerAPI`) used for delayed
        delivery.
    topo:
        The *full* overlay; liveness is consulted per send via ``is_up``.
    is_up:
        Predicate for node liveness; defaults to "always up".  The fault
        model (:mod:`repro.network.faults`) supplies the real one.
    link_up:
        Predicate ``(u, v) -> bool`` for link liveness; defaults to
        "all links up".  The fault model's
        :meth:`~repro.network.faults.FaultManager.link_up` supplies the
        real one so ``fail_link`` severs floods and unicasts (the live
        overlay is the UP nodes minus the failed links).
    liveness_version:
        Callable returning a counter that moves whenever ``is_up`` or
        ``link_up`` would answer differently (the fault model's
        ``version``).  With ``topo.version`` it keys the liveness epoch
        under which every flood's receivers and charge are cached, so
        the two predicates must be functions of that epoch.  Defaults to
        a constant, which suits the default predicates.
    cost_model:
        See :class:`CostModel`.
    per_hop_latency:
        Seconds of delay per hop (floods use the BFS depth per receiver).
        Non-zero latency is one of the three consumers that make
        point-to-point sends compute hop counts (see the module
        docstring); at zero they are not computed.
    on_cost:
        Callback ``(message kind, cost)`` invoked once per send; the
        metrics collector hooks in here.
    impairments:
        Optional :class:`~repro.network.impairments.NetworkImpairments`.
        Installed on the delivery path only when its config enables at
        least one impairment; a ``None`` or fully-disabled engine leaves
        every path byte-identical to an impairment-free transport.
    """

    def __init__(
        self,
        sim: "SchedulerAPI",
        topo: Topology,
        *,
        is_up: Optional[Callable[[NodeId], bool]] = None,
        link_up: Optional[LinkPredicate] = None,
        liveness_version: Optional[Callable[[], int]] = None,
        cost_model: Optional[CostModel] = None,
        per_hop_latency: float = 0.0,
        on_cost: Optional[CostSink] = None,
        impairments: Optional[NetworkImpairments] = None,
    ) -> None:
        self.sim = sim
        self.topo = topo
        self.router = Router(topo)
        self.is_up = is_up if is_up is not None else (lambda _n: True)
        self.link_up = link_up
        #: with neither a liveness nor a link predicate the live overlay
        #: *is* the full topology, so routing skips the live-subgraph
        #: machinery entirely (keeps the fault-free path allocation-free)
        self._fault_aware = is_up is not None or link_up is not None
        #: liveness mutation counter; floods cache their (receivers, depths,
        #: link count) per source until topology or liveness changes.  The
        #: default constant works with the default always-up predicate.
        self.liveness_version = (
            liveness_version if liveness_version is not None else (lambda: 0)
        )
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.per_hop_latency = float(per_hop_latency)
        self.on_cost = on_cost
        self.impairments = impairments
        #: hot-path hook: non-None only when impairments are actually on
        self._impair = (
            impairments if impairments is not None and impairments.enabled else None
        )
        self._handlers: Dict[NodeId, Dict[str, Handler]] = {}
        self._epoch: Optional[_EpochStructure] = None
        self._flood_cache: Dict[NodeId, tuple] = {}
        self._scope_cache: Dict[NodeId, tuple] = {}
        self._depth_cache: Dict[NodeId, dict] = {}
        self.sent_messages = 0
        self.delivered_messages = 0
        self.dropped_messages = 0
        #: the delivery primitive, resolved once so the fan-out loops bind
        #: locals and the simulator pays no call frame for the seam
        self._post, self._arrive, self._post_each = self._wire()
        # Cohort fast path: a flood's deliveries share one (time,
        # priority) key; registering the batch hook lets the kernel hand
        # the whole same-instant run — pre-formed by the flood or
        # discovered on the agenda — to _deliver_batch in one call.
        # Guarded so a bare kernel without cohort support still works
        # scalar-per-event.
        register = getattr(sim, "register_batch", None)
        if register is not None:
            register(self._deliver, self._deliver_batch)

    def _wire(self) -> tuple:
        """``(post, arrive, post_each)``: how a surviving delivery leaves
        the transport.

        Every send ends in ``post(delay, arrive, src, dst, kind, payload,
        sent_at, priority=Priority.MESSAGE)`` or, for a fan-out whose
        deliveries share one delay, in ``post_each(delay, arrive,
        messages, Priority.MESSAGE)`` — the same posts in order, handed
        over as one list of ``(src, dst, kind, payload, sent_at)``.
        Here those are the scheduler's ``after`` and ``after_each``
        running :meth:`_deliver`; a subclass with a real wire returns its
        own, and whatever ``arrive`` puts on that wire must come back
        through :meth:`_deliver`.
        """
        each = getattr(self.sim, "after_each", None)
        return self.sim.after, self._deliver, each or self._post_one_by_one

    def _post_one_by_one(
        self, delay: float, arrive: Callable[..., None], messages: List[tuple],
        priority: int,
    ) -> None:
        """``post_each`` of a wire that carries one message at a time."""
        post = self._post
        for message in messages:
            post(delay, arrive, *message, priority=priority)

    # Registration --------------------------------------------------------

    def register(self, node: NodeId, kind: str, handler: Handler) -> None:
        """Subscribe ``handler`` to messages of ``kind`` addressed to ``node``."""
        if not self.topo.has_node(node):
            raise KeyError(f"no such node: {node}")
        self._handlers.setdefault(node, {})[kind] = handler

    def unregister(self, node: NodeId) -> None:
        """Drop all handlers of ``node``.

        No product path calls it (a crashed node is silenced by the fault
        model's predicates); tests use it to silence a live node.
        """
        self._handlers.pop(node, None)

    # Sending -----------------------------------------------------------

    def unicast(self, src: NodeId, dst: NodeId, kind: str, payload: Any) -> bool:
        """Send point-to-point.  Returns ``True`` if the message was
        dispatched (receiver may still be down on arrival).

        The cost is charged iff the message leaves the source — a down
        source sends nothing and costs nothing.
        """
        if not self.is_up(src):
            return False
        if not self.topo.has_node(dst):
            raise KeyError(f"no such node: {dst}")
        self.sent_messages += 1
        need_hops = self._hops_consumed()
        if not self.is_up(dst):
            # Dead destination: the packets still traverse the (full)
            # overlay toward it until dropped; charge the attempted route
            # through the cost model's mode switch (FIXED and MEAN never
            # read ``hops``).
            hops = self.router.distance(src, dst) if need_hops else UNREACHABLE
            self._charge(
                kind, self.cost_model.dead_unicast_cost(self.router, src, dst, hops)
            )
            self.dropped_messages += 1
            return False
        router = self._route_reader(need_hops)
        hops = self._live_hops(router, src, dst, need_hops)
        if hops < 0:
            # Live but unreachable (partition / failed links): same
            # dead-charge path, priced on the live overlay.
            self._charge(
                kind, self.cost_model.dead_unicast_cost(router, src, dst, hops)
            )
            self.dropped_messages += 1
            return False
        self._charge(kind, self.cost_model.unicast_cost(router, src, dst, hops))
        self._deliver_later(src, dst, kind, payload, hops)
        return True

    def flood(
        self, src: NodeId, kind: str, payload: Any, *, neighbors_only: bool = False
    ) -> List[NodeId]:
        """Broadcast to every live node reachable from ``src``.

        Costs ``#links`` of the live component (or the override), matching
        the paper's "number of messages ... counted as the number of
        links".  With ``neighbors_only`` the delivery scope is the direct
        topology neighbours (Section 5: "the topology represents the
        limited scope of neighbors for REALTOR and all other four
        resource discovery schemes"), while the charged cost is unchanged
        ("this assumption does not affect the performance comparison").
        Returns the list of receivers.
        """
        if not self.is_up(src):
            return []
        self.sent_messages += 1
        if neighbors_only:
            receivers, links = self._scope_structure(src)
            depth: Optional[dict] = None  # every receiver is depth 1
        else:
            receivers, links = self._flood_structure(src)
            # BFS depths are only consulted with per-hop latency or
            # impairments installed; the paper's zero-latency perfect
            # network never pays for them.
            depth = (
                self._flood_depth(src)
                if self._impair is not None or self.per_hop_latency != 0.0
                else None
            )
        cost = self.cost_model.flood_cost_override
        if cost is None:
            cost = float(links)
        if self.on_cost is not None:
            self.on_cost(kind, cost)
        # Fan-out fast path: bound-method deliveries (no per-message
        # closure).  The zero-latency, unimpaired case — the paper's —
        # skips the depth lookups and posts its receivers as one
        # pre-formed cohort: one agenda entry whatever the fan-out.
        # Scheduling order — and therefore the event sequence — matches
        # the generic path exactly.
        now = self.sim.now
        after = self._post
        deliver = self._arrive
        latency = self.per_hop_latency
        impair = self._impair
        if impair is not None:
            # Impaired fan-out: per-receiver loss/jitter/dup/reorder
            # verdicts, drawn in deterministic (sorted-receiver) order.
            plan = impair.plan
            for dst in receivers:
                hops = 1 if depth is None else depth[dst]
                delays = plan(src, dst, hops)
                if delays is None:
                    self.dropped_messages += 1
                    continue
                base = latency * hops
                for extra in delays:
                    after(base + extra, deliver, src, dst, kind, payload, now,
                          priority=Priority.MESSAGE)
        elif latency == 0.0:
            self._post_each(
                0.0, deliver,
                [(src, dst, kind, payload, now) for dst in receivers],
                Priority.MESSAGE,
            )
        else:
            for dst in receivers:
                hops = 1 if depth is None else depth[dst]
                after(latency * hops, deliver, src, dst, kind, payload, now,
                      priority=Priority.MESSAGE)
        return list(receivers)

    def _epoch_structure(self) -> _EpochStructure:
        """The current liveness epoch's shared flood structure.

        Rebuilt — and every per-source cache dropped — exactly when the
        ``(topology version, liveness version)`` key moves; failing or
        restoring a link mid-run therefore repartitions every subsequent
        flood and drops the live overlay and router in the same stroke.
        """
        key = (self.topo.version, self.liveness_version())
        epoch = self._epoch
        if epoch is None or epoch.key != key:
            epoch = _EpochStructure(key, self.topo, self.is_up, self.link_up)
            self._epoch = epoch
            self._flood_cache.clear()
            self._scope_cache.clear()
            self._depth_cache.clear()
        return epoch

    def _flood_structure(self, src: NodeId) -> tuple:
        """(receivers, link count) of ``src``'s live component.

        The receiver tuple is cached per source; everything it derives
        from lives on the epoch structure, so the per-source cost inside
        an epoch is one tuple build — not a BFS plus a component scan of
        the whole overlay, which is what floods used to pay per source.
        """
        epoch = self._epoch_structure()
        cached = self._flood_cache.get(src)
        if cached is not None:
            return cached
        ci = epoch.comp_of.get(src)
        if ci is None:
            result: tuple = ((), 0)
        else:
            receivers = tuple(d for d in epoch.members[ci] if d != src)
            result = (receivers, epoch.links[ci])
        self._flood_cache[src] = result
        return result

    def _scope_structure(self, src: NodeId) -> tuple:
        """(receivers, link count) of a ``neighbors_only`` flood from ``src``.

        The receivers are ``src``'s direct neighbours that are up across
        an up link; only the charge is component-wide, and it is read off
        the epoch labels without building the component's receiver tuple.
        Both are functions of the liveness epoch alone, so the predicates
        run once per source per epoch, not once per flood.
        """
        epoch = self._epoch_structure()
        cached = self._scope_cache.get(src)
        if cached is None:
            is_up = self.is_up
            link_up = self.link_up
            ci = epoch.comp_of.get(src)
            cached = self._scope_cache[src] = (
                tuple(
                    n for n in self.topo.neighbors(src)
                    if is_up(n) and (link_up is None or link_up(src, n))
                ),
                0 if ci is None else epoch.links[ci],
            )
        return cached

    def _flood_depth(self, src: NodeId) -> dict:
        """BFS depths from ``src`` over the live overlay (epoch-cached).

        Only consulted when per-hop latency or impairments need per-
        receiver hop counts; the zero-latency fast path never builds it.
        """
        live = self._live_overlay()
        depth = self._depth_cache.get(src)
        if depth is None:
            depth = bfs_distances(live, src) if live.has_node(src) else {}
            self._depth_cache[src] = depth
        return depth

    def multicast(
        self,
        src: NodeId,
        dests: Iterable[NodeId],
        kind: str,
        payload: Any,
        *,
        cost: Optional[float] = None,
    ) -> List[NodeId]:
        """Send to an explicit receiver set.

        Default cost is the sum of unicast costs; ``cost=1.0`` models
        LAN IP multicast.
        """
        if not self.is_up(src):
            return []
        self.sent_messages += 1
        receivers: List[NodeId] = []
        total = 0.0
        need_hops = self._hops_consumed()
        router = self._route_reader(need_hops)
        for dst in sorted(set(dests)):
            if dst == src or not self.topo.has_node(dst) or not self.is_up(dst):
                continue
            hops = self._live_hops(router, src, dst, need_hops)
            if hops < 0:
                continue
            total += self.cost_model.unicast_cost(router, src, dst, hops)
            receivers.append(dst)
            self._deliver_later(src, dst, kind, payload, hops)
        self._charge(kind, cost if cost is not None else total)
        return receivers

    # Internals ------------------------------------------------------------

    def _live_overlay(self) -> Topology:
        """The current epoch's live overlay as a :class:`Topology`.

        Without fault predicates that is the full topology itself.  With
        them it is a copy — UP nodes minus failed links — built on the
        first call of the epoch, which only a route reader makes.
        """
        if not self._fault_aware:
            return self.topo
        epoch = self._epoch_structure()
        if epoch.live is None:
            live = self.topo.subgraph([n for n in self.topo.nodes() if self.is_up(n)])
            if self.link_up is not None:
                for u, v in live.links():
                    if not self.link_up(u, v):
                        live.remove_link(u, v)
            epoch.live = live
        return epoch.live

    def live_router(self) -> Router:
        """Routing oracle over the live overlay.

        Falls back to the full-topology router when no fault predicates
        are installed (the two are identical then); otherwise built over
        the epoch's live overlay on first use and dropped with it when
        the liveness epoch moves.  The lazy :class:`Router` makes the
        per-epoch rebuild O(V+E) — fresh epochs only re-BFS the sources
        that actually route afterwards.  Called only when a route is read
        (:meth:`_route_reader`), so the paper's accounting builds neither.
        """
        if not self._fault_aware:
            return self.router
        live = self._live_overlay()
        epoch = self._epoch
        if epoch.router is None:
            epoch.router = Router(live)
        return epoch.router

    def _hops_consumed(self) -> bool:
        """Does anything read a point-to-point send's hop count?

        The HOPS charge, per-hop latency and the impairment engine
        (per-link loss compounds over the route) do.  The paper's own
        accounting — fixed charge, instantaneous lossless delivery — does
        not: there a send only needs reachability (:meth:`_live_hops`),
        and the router never computes a BFS row.
        """
        return (
            self.cost_model.unicast_mode is UnicastCostMode.HOPS
            or self.per_hop_latency != 0.0
            or self._impair is not None
        )

    def _route_reader(self, hops_consumed: bool) -> Optional[Router]:
        """The live router when a point-to-point send reads a route from
        it — a hop count, or the MEAN charge's mean path — else ``None``:
        the FIXED charge reads neither."""
        if hops_consumed or self.cost_model.unicast_mode is UnicastCostMode.MEAN:
            return self.live_router()
        return None

    def _live_hops(
        self, router: Optional[Router], src: NodeId, dst: NodeId, consumed: bool
    ) -> int:
        """Route length between two live nodes, ``UNREACHABLE`` if none.

        With no consumer for the length, reachability alone is answered
        from the epoch's component labels and a reachable pair reads 0.
        """
        if consumed:
            return router.distance(src, dst)
        comp_of = self._epoch_structure().comp_of
        return 0 if comp_of[src] == comp_of[dst] else UNREACHABLE

    def _charge(self, kind: str, cost: float) -> None:
        if self.on_cost is not None:
            self.on_cost(kind, cost)

    def _deliver_later(
        self, src: NodeId, dst: NodeId, kind: str, payload: Any, hops: int
    ) -> None:
        delay = self.per_hop_latency * max(hops, 0)
        if self._impair is not None:
            delays = self._impair.plan(src, dst, hops)
            if delays is None:
                self.dropped_messages += 1
                return  # lost in transit (cost already charged at send)
            for extra in delays:
                self._post(
                    delay + extra, self._arrive, src, dst, kind, payload,
                    self.sim.now, priority=Priority.MESSAGE,
                )
            return
        self._post(
            delay, self._arrive, src, dst, kind, payload, self.sim.now,
            priority=Priority.MESSAGE,
        )

    def _deliver(
        self, src: NodeId, dst: NodeId, kind: str, payload: Any, sent_at: float
    ) -> None:
        """Event callback for one message arrival (liveness re-checked)."""
        if not self.is_up(dst):
            self.dropped_messages += 1
            return
        handlers = self._handlers.get(dst)
        handler = handlers.get(kind) if handlers is not None else None
        if handler is None:
            self.dropped_messages += 1
            return
        self.delivered_messages += 1
        handler(Delivery(src, dst, kind, payload, sent_at, self.sim.now))

    def _deliver_batch(self, cohort: List[tuple]) -> None:
        """Cohort hook: a same-instant run of :meth:`_deliver` arguments.

        Must be observationally identical to
        ``for args in cohort: self._deliver(*args)``: liveness and the
        handler table are re-consulted *per item* — a handler early in
        the cohort may crash a later receiver or unregister its handlers
        — and counters bump item by item.  Only the attribute loads
        (predicate, handler table, clock) are hoisted; the clock cannot
        move inside a cohort because ``run`` is not reentrant.
        """
        is_up = self.is_up
        by_node = self._handlers
        now = self.sim.now
        for src, dst, kind, payload, sent_at in cohort:
            if not is_up(dst):
                self.dropped_messages += 1
                continue
            handlers = by_node.get(dst)
            handler = handlers.get(kind) if handlers is not None else None
            if handler is None:
                self.dropped_messages += 1
                continue
            self.delivered_messages += 1
            handler(Delivery(src, dst, kind, payload, sent_at, now))
