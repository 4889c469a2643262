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

This module holds the group layout; the agent is
:class:`repro.protocols.hierarchy.HierarchicalRealtorAgent`, the
``realtor-hier`` rows of :data:`repro.protocols.registry.PROTOCOLS`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..network.topology import Topology

__all__ = ["partition_groups", "GroupDirectory"]


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

    @classmethod
    def of(cls, topo: Topology, group_size: int) -> "GroupDirectory":
        """The directory every agent on overlay ``topo`` shares.

        One per (overlay, group size), so a churn joiner's adoption
        reaches every agent of its system.  It is held weakly by the
        overlay object and dies with it.
        """
        by_size = _DIRECTORIES.setdefault(topo, {})
        directory = by_size.get(group_size)
        if directory is None:
            directory = by_size[group_size] = cls.from_topology(topo, group_size)
        return directory

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


#: each live overlay's directories by group size; an overlay's entry goes
#: when the overlay object does, so no run sees another run's layout
_DIRECTORIES: "weakref.WeakKeyDictionary[Topology, Dict[int, GroupDirectory]]" = (
    weakref.WeakKeyDictionary()
)
