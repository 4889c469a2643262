"""Reference implementations the tests check the product against.

None of these run in a simulation: the product labels components with
``Transport``'s epoch structure, builds its live overlay in
``Transport._live_overlay`` and charges hop counts through ``Router``.
They are the plain, obviously-correct versions the tests use as oracles
and as assertions ("the overlay is connected", "a PLEDGE followed every
HELP").
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.network.faults import FaultManager
from repro.network.topology import NodeId, Topology
from repro.sim.trace import TraceRecord, Tracer


def shortest_path(topo: Topology, source: NodeId, dest: NodeId) -> Optional[List[NodeId]]:
    """One shortest node path ``source..dest`` (deterministic: smallest-id
    predecessor wins), or ``None`` if unreachable."""
    if not topo.has_node(source) or not topo.has_node(dest):
        raise KeyError("endpoint not in topology")
    if source == dest:
        return [source]
    parent: Dict[NodeId, NodeId] = {source: source}
    dq = deque([source])
    while dq:
        cur = dq.popleft()
        for nxt in topo.neighbors(cur):  # sorted => deterministic parents
            if nxt not in parent:
                parent[nxt] = cur
                if nxt == dest:
                    path = [dest]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                dq.append(nxt)
    return None


def connected_components(topo: Topology) -> List[FrozenSet[NodeId]]:
    """Connected components, each as a frozenset, largest first."""
    seen: Set[NodeId] = set()
    comps: List[FrozenSet[NodeId]] = []
    for start in topo.nodes():
        if start in seen:
            continue
        frontier = [start]
        comp = {start}
        while frontier:
            cur = frontier.pop()
            for nxt in topo.neighbors(cur):
                if nxt not in comp:
                    comp.add(nxt)
                    frontier.append(nxt)
        seen |= comp
        comps.append(frozenset(comp))
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps


def is_connected(topo: Topology) -> bool:
    return topo.num_nodes > 0 and len(connected_components(topo)) == 1


def live_topology(faults: FaultManager) -> Topology:
    """Topology induced by UP nodes minus failed links."""
    sub = faults.topo.subgraph(faults.up_nodes())
    for u, v in list(sub.links()):
        if not faults.link_up(u, v):
            sub.remove_link(u, v)
    return sub


def trace_pairs(tracer: Tracer, first: str, second: str) -> List[Tuple[TraceRecord, TraceRecord]]:
    """Greedy in-order pairing of ``first`` records with later ``second`` s:
    request/response causality."""
    out: List[Tuple[TraceRecord, TraceRecord]] = []
    pending: deque = deque()
    for rec in tracer.records:
        if rec.category == first:
            pending.append(rec)
        elif rec.category == second and pending:
            out.append((pending.popleft(), rec))
    return out
