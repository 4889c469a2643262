"""Overlay topology model.

The paper's simulation runs on an application-level overlay: a 5x5 mesh
with 25 nodes and 40 links.  :class:`Topology` is a small undirected graph
tailored to what the discovery protocols need:

* adjacency queries (push dissemination goes to neighbours),
* link count (a flood costs ``#links`` messages in the paper's accounting),
* shortest-path lengths (a unicast PLEDGE costs the mean shortest path).

It deliberately does not depend on :mod:`networkx`; tests cross-validate
the routing results against networkx instead.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set, Tuple

__all__ = ["Topology", "NodeId", "Link"]

NodeId = int
Link = Tuple[NodeId, NodeId]


def _norm(u: NodeId, v: NodeId) -> Link:
    """Canonical (small, large) representation of an undirected link."""
    return (u, v) if u <= v else (v, u)


class Topology:
    """An undirected overlay graph with stable node identifiers.

    Nodes are small integers; links are unordered pairs.  Mutation is
    allowed (the fault model removes links/nodes and churn adds them), and
    derived quantities (shortest paths, mean path length) are recomputed
    lazily and cached until the next mutation.
    """

    def __init__(self, nodes: Iterable[NodeId] = (), links: Iterable[Link] = ()) -> None:
        self._adj: Dict[NodeId, Set[NodeId]] = {}
        self._links: Set[Link] = set()
        self._version = 0
        # (version, sorted node list) memo; nodes() is called per flood
        # epoch and per liveness census, and re-sorting 10k ids each time
        # is measurable at the top scaling tiers.
        self._nodes_cache: Tuple[int, List[NodeId]] = (-1, [])
        for n in nodes:
            self.add_node(n)
        for u, v in links:
            self.add_link(u, v)

    # Mutation -----------------------------------------------------------

    def add_node(self, n: NodeId) -> None:
        if n not in self._adj:
            self._adj[n] = set()
            self._version += 1

    def remove_node(self, n: NodeId) -> None:
        """Remove ``n`` and all incident links."""
        if n not in self._adj:
            raise KeyError(f"no such node: {n}")
        for m in list(self._adj[n]):
            self.remove_link(n, m)
        del self._adj[n]
        self._version += 1

    def add_link(self, u: NodeId, v: NodeId) -> None:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        self.add_node(u)
        self.add_node(v)
        link = _norm(u, v)
        if link not in self._links:
            self._links.add(link)
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._version += 1

    def remove_link(self, u: NodeId, v: NodeId) -> None:
        link = _norm(u, v)
        if link not in self._links:
            raise KeyError(f"no such link: {link}")
        self._links.discard(link)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._version += 1

    # Queries --------------------------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter; consumers use it to invalidate caches."""
        return self._version

    def nodes(self) -> List[NodeId]:
        """Node identifiers in sorted order (deterministic iteration).

        Memoised on :attr:`version`; a fresh copy is returned each call
        so callers may mutate the result freely.
        """
        ver, cached = self._nodes_cache
        if ver != self._version:
            cached = sorted(self._adj)
            self._nodes_cache = (self._version, cached)
        return list(cached)

    def links(self) -> List[Link]:
        """Canonical links in sorted order."""
        return sorted(self._links)

    def neighbors(self, n: NodeId) -> List[NodeId]:
        """Sorted neighbours of ``n``."""
        return sorted(self._adj[n])

    def has_node(self, n: NodeId) -> bool:
        return n in self._adj

    def has_link(self, u: NodeId, v: NodeId) -> bool:
        return _norm(u, v) in self._links

    def degree(self, n: NodeId) -> int:
        return len(self._adj[n])

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def copy(self) -> "Topology":
        return Topology(self.nodes(), self.links())

    def subgraph(self, keep: Iterable[NodeId]) -> "Topology":
        """Topology induced by the node set ``keep``."""
        keep_set = set(keep)
        links = [(u, v) for (u, v) in self._links if u in keep_set and v in keep_set]
        return Topology(keep_set & set(self._adj), links)

    def __contains__(self, n: NodeId) -> bool:
        return n in self._adj

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Topology |V|={self.num_nodes} |E|={self.num_links}>"
