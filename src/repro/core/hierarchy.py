"""Inter-community (hierarchical) resource discovery.

The paper's Section 7: "In the future, we will extend this work to
inter-neighbor-group resource discovery and allocation for very large
distributed dynamic real-time systems."  This module implements that
extension as described (a second discovery level across neighbour
groups), so the A6 ablation can quantify what the hierarchy buys.

Design
------
* The overlay is partitioned into *neighbour groups* of roughly
  ``group_size`` nodes (deterministic BFS chunking, so groups are
  connected).  The lowest-id member of each group is its **gateway**.
* Level 1 is plain REALTOR with dissemination scoped to the group.
* When a node's HELP round *fails* (Algorithm H's timeout — no member
  could host the demand), it **escalates**: it sends an ``ESCALATE`` to
  its gateway, the gateway multicasts a ``REMOTE_HELP`` to the other
  gateways, and each answering gateway returns its group's best-known
  candidate (from its own community view) as a ``REMOTE_PLEDGE`` that is
  forwarded back to the requester.  The requester's view thereby gains
  remote candidates exactly when the local group is exhausted —
  discovery traffic stays group-local until the group genuinely cannot
  help.

All inter-level messages ride the ordinary transport, so they are
charged, dropped on faults and delivered asynchronously like everything
else.  A crashed gateway is replaced lazily: the next live lowest-id
member takes over (gateway identity is *derived*, not elected state —
keeping the protocol stateless in the paper's sense).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..network.topology import Topology
from ..runtime.api import Delivery
from ..protocols.base import DiscoveryAgent, ProtocolContext
from ..protocols.registry import PROTOCOLS, register_protocol
from .messages import Help, Pledge

__all__ = [
    "partition_groups",
    "GroupDirectory",
    "HierarchicalRealtorAgent",
    "KIND_ESCALATE",
    "KIND_REMOTE_HELP",
    "KIND_REMOTE_PLEDGE",
]

KIND_ESCALATE = "ESCALATE"
KIND_REMOTE_HELP = "REMOTE_HELP"
KIND_REMOTE_PLEDGE = "REMOTE_PLEDGE"


def partition_groups(topo: Topology, group_size: int) -> List[List[int]]:
    """Deterministic connected partition into chunks of ~``group_size``.

    Greedy BFS chunking: repeatedly seed at the lowest unassigned node id
    and grow a BFS ball over unassigned nodes until the chunk is full.
    Every chunk is connected in ``topo`` (given ``topo`` is connected).
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    unassigned = set(topo.nodes())
    groups: List[List[int]] = []
    while unassigned:
        seed = min(unassigned)
        chunk = [seed]
        unassigned.discard(seed)
        frontier = [seed]
        while frontier and len(chunk) < group_size:
            nxt_frontier: List[int] = []
            for node in frontier:
                for nb in topo.neighbors(node):
                    if nb in unassigned and len(chunk) < group_size:
                        unassigned.discard(nb)
                        chunk.append(nb)
                        nxt_frontier.append(nb)
            frontier = nxt_frontier
        groups.append(sorted(chunk))
    return groups


@dataclass
class GroupDirectory:
    """Shared, immutable group layout (who is in which group)."""

    groups: List[List[int]]
    _group_of: Dict[int, int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self._group_of = {}
        for gi, members in enumerate(self.groups):
            for node in members:
                if node in self._group_of:
                    raise ValueError(f"node {node} in two groups")
                self._group_of[node] = gi

    @classmethod
    def from_topology(cls, topo: Topology, group_size: int) -> "GroupDirectory":
        return cls(partition_groups(topo, group_size))

    def group_of(self, node: int) -> int:
        return self._group_of[node]

    def adopt(self, node: int, topo: Topology) -> int:
        """Assign a newcomer (churn join) to a group.

        Joins the group of its lowest-id known topology neighbour, or a
        fresh singleton group when isolated.  Returns the group index.
        """
        if node in self._group_of:
            return self._group_of[node]
        known = [n for n in topo.neighbors(node) if n in self._group_of]
        if known:
            gi = self._group_of[min(known)]
            self.groups[gi].append(node)
            self.groups[gi].sort()
        else:
            gi = len(self.groups)
            self.groups.append([node])
        self._group_of[node] = gi
        return gi

    def members(self, node: int) -> List[int]:
        """Group mates of ``node`` (including itself)."""
        return self.groups[self.group_of(node)]

    def gateway(self, group_index: int, is_up=None) -> Optional[int]:
        """Lowest live member id; derived, never stored."""
        for node in self.groups[group_index]:
            if is_up is None or is_up(node):
                return node
        return None

    def gateways(self, is_up=None) -> List[int]:
        out = []
        for gi in range(len(self.groups)):
            gw = self.gateway(gi, is_up)
            if gw is not None:
                out.append(gw)
        return out

    def __len__(self) -> int:
        return len(self.groups)


class HierarchicalRealtorAgent(DiscoveryAgent):
    """REALTOR's parts plus the Section 7 inter-group escalation level."""

    def __init__(self, ctx: ProtocolContext, directory: GroupDirectory) -> None:
        super().__init__(ctx, *PROTOCOLS["realtor"].parts)
        self.directory = directory
        self.help.on_timeout = self._escalate
        self.escalations = 0
        self.remote_helps = 0
        self.remote_pledges = 0

    # Level-1 dissemination is group-scoped -------------------------------

    def flood(self, kind: str, payload: object) -> List[int]:
        """HELP stays inside the neighbour group (level 1)."""
        members = [m for m in self.directory.members(self.node_id)
                   if m != self.node_id]
        return self.transport.multicast(self.node_id, members, kind, payload)

    def _prime_scope(self, hosts) -> List[int]:
        """Level-1 knowledge is group-scoped too."""
        return [
            nid for nid in self.directory.members(self.node_id)
            if nid != self.node_id and nid in hosts
        ]

    # Level-2: escalation ----------------------------------------------------

    def start(self) -> None:
        super().start()
        self.transport.register(self.node_id, KIND_ESCALATE, self._on_escalate)
        self.transport.register(self.node_id, KIND_REMOTE_HELP, self._on_remote_help)
        self.transport.register(
            self.node_id, KIND_REMOTE_PLEDGE, self._on_remote_pledge
        )

    def _my_gateway(self) -> Optional[int]:
        return self.directory.gateway(
            self.directory.group_of(self.node_id), self.transport.is_up
        )

    def _escalate(self) -> None:
        """The local HELP round failed: go up a level."""
        gateway = self._my_gateway()
        if gateway is None:
            return
        self.escalations += 1
        msg = Help(
            organizer=self.node_id,
            members=self.community.size(),
            demand=self._pending_demand,
            sent_at=self.sim.now,
        )
        if gateway == self.node_id:
            self._relay_remote_help(msg)
        else:
            self.transport.unicast(self.node_id, gateway, KIND_ESCALATE, msg)

    def _on_escalate(self, delivery: Delivery) -> None:
        """Gateway duty: relay a member's failed search to peer gateways."""
        self._relay_remote_help(delivery.payload)

    def _relay_remote_help(self, help_msg: Help) -> None:
        peers = [
            gw
            for gw in self.directory.gateways(self.transport.is_up)
            if gw != self.node_id
        ]
        if peers:
            self.remote_helps += 1
            self.transport.multicast(self.node_id, peers, KIND_REMOTE_HELP, help_msg)

    def _on_remote_help(self, delivery: Delivery) -> None:
        """Gateway duty: answer with this group's best-known candidate."""
        help_msg: Help = delivery.payload
        best = self.view.best(self.sim.now, min_availability=help_msg.demand)
        if best is None:
            # fall back to offering ourselves when we qualify
            snap = self.host.snapshot()
            if self.safe and snap.available and snap.headroom >= help_msg.demand:
                self._send_pledge(help_msg.organizer, kind=KIND_REMOTE_PLEDGE)
            return
        # forward the best candidate's availability on its behalf (the
        # gateway vouches with the freshest information it holds)
        pledge = Pledge(
            pledger=best.node,
            availability=best.availability,
            usage=best.usage,
            communities=0,
            grant_probability=0.5,
            sent_at=best.timestamp,
        )
        self.transport.unicast(
            self.node_id, help_msg.organizer, KIND_REMOTE_PLEDGE, pledge
        )

    def _on_remote_pledge(self, delivery: Delivery) -> None:
        pledge = delivery.payload
        self.remote_pledges += 1
        available = pledge.usage < self.threshold
        self.view.update(
            pledge.pledger, pledge.availability, pledge.usage, available, pledge.sent_at
        )
        self.help.on_pledge(
            found_node=pledge.availability >= self._pending_demand and available
        )

    def stats(self) -> Dict[str, float]:
        base = super().stats()
        base.update(
            escalations=float(self.escalations),
            remote_helps=float(self.remote_helps),
            remote_pledges=float(self.remote_pledges),
        )
        return base


def make_hierarchical_factory(group_size: int):
    """A registry-compatible factory with a shared per-topology directory.

    Agents created against the same transport share one
    :class:`GroupDirectory`, so the partition is computed once.
    """
    directories: Dict[int, GroupDirectory] = {}

    def factory(ctx: ProtocolContext) -> HierarchicalRealtorAgent:
        key = id(ctx.transport.topo)
        directory = directories.get(key)
        if directory is None:
            directory = GroupDirectory.from_topology(ctx.transport.topo, group_size)
            directories[key] = directory
        # a node created after the initial partition (churn join) is
        # adopted into its neighbours' group
        directory.adopt(ctx.host.node_id, ctx.transport.topo)
        return HierarchicalRealtorAgent(ctx, directory)

    return factory


register_protocol("realtor-hier", make_hierarchical_factory(9), "hierarchical")
register_protocol("realtor-hier-25", make_hierarchical_factory(25))
