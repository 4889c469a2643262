"""Shortest-path routing over a :class:`~repro.network.topology.Topology`.

The message-accounting model of the paper charges a unicast message the
length of the shortest path between the endpoints and quotes the *average*
shortest-path length (4 hops on the 5x5 mesh) as the PLEDGE cost.  This
module provides both the exact per-pair distances and the network-wide
mean, with caching keyed on the topology's mutation counter so the fault
model invalidates everything automatically.

Two oracles live here:

* :class:`Router` — the production oracle.  It is **lazy**: adjacency is
  compiled once per topology version into CSR-style numpy arrays, and
  per-source distance rows are computed on demand (a numpy-backed BFS
  frontier expansion) and cached.  Building a Router costs O(V+E), not
  O(V·(V+E)) — the property that makes per-liveness-epoch routers viable
  on 2.5k–10k-node overlays.  The mean shortest path is computed in one
  all-sources sweep the first time it is asked for, without
  materialising the O(V²) matrix.
* :class:`EagerRouter` — the original all-pairs oracle, kept as the
  executable specification.  It precomputes the dense distance matrix on
  first query; property tests pin the lazy Router observationally
  equivalent to it, and the benchmark harness uses its setup cost as the
  baseline for the scaling curve.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

import numpy as np

from .topology import NodeId, Topology

__all__ = ["Router", "EagerRouter", "bfs_distances"]

UNREACHABLE = -1

#: per-source rows are memoised only below this node count — above it a
#: full sweep would silently materialise an O(V²) matrix (400 MB at 10k
#: nodes); aggregate sweeps discard rows instead and only explicitly
#: queried sources stay cached
_ROW_CACHE_SWEEP_LIMIT = 4096


def bfs_distances(topo: Topology, source: NodeId) -> Dict[NodeId, int]:
    """Hop distances from ``source`` to every reachable node (BFS)."""
    if not topo.has_node(source):
        raise KeyError(f"no such node: {source}")
    dist = {source: 0}
    dq = deque([source])
    while dq:
        cur = dq.popleft()
        d = dist[cur] + 1
        for nxt in topo.neighbors(cur):
            if nxt not in dist:
                dist[nxt] = d
                dq.append(nxt)
    return dist


class Router:
    """Lazy per-source hop-count oracle with cache-on-demand rows.

    Adjacency is flattened into CSR arrays (``_indptr``/``_indices``) once
    per topology version; a source's distance row is computed by a
    vectorised BFS frontier expansion the first time that source is
    queried and memoised until the next mutation.  Simulations only ever
    route between the handful of nodes that actually exchange unicasts in
    an epoch (and only when something consumes the hop count — see
    :class:`~repro.network.transport.Transport`), so the common case
    touches a few rows of the V×V space the eager oracle used to
    precompute in full.
    """

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self._version = -1
        self._index: Dict[NodeId, int] = {}
        self._nodes: List[NodeId] = []
        self._indptr: np.ndarray = np.zeros(1, dtype=np.int64)
        self._indices: np.ndarray = np.zeros(0, dtype=np.int64)
        self._rows: Dict[int, np.ndarray] = {}
        #: sources whose :meth:`distance` miss was answered by computing
        #: the destination's row; a second miss computes their own
        self._missed_sources: set = set()
        self._mean_path: Optional[float] = None
        #: BFS rows computed since construction, across topology versions
        #: and including the discarded rows of large aggregate sweeps.  A
        #: :meth:`distance` miss computes one row (the destination's, or
        #: a repeat-miss source's), never both endpoints'; every other
        #: query computes its source's.  The scaling benchmarks read this
        #: to show how little of the V×V space a run actually visits — 0
        #: for a run whose transport never consumes a hop count.
        self.rows_computed = 0

    # Cache maintenance ---------------------------------------------------

    def _refresh(self) -> None:
        """Recompile adjacency and drop every cached row on mutation."""
        if self._version == self.topo.version:
            return
        nodes = self.topo.nodes()
        n = len(nodes)
        self._nodes = nodes
        self._index = {nid: i for i, nid in enumerate(nodes)}
        indptr = np.zeros(n + 1, dtype=np.int64)
        chunks: List[np.ndarray] = []
        index = self._index
        for i, nid in enumerate(nodes):
            neigh = self.topo.neighbors(nid)
            indptr[i + 1] = indptr[i] + len(neigh)
            if neigh:
                chunks.append(np.fromiter(
                    (index[m] for m in neigh), dtype=np.int64, count=len(neigh)
                ))
        self._indptr = indptr
        self._indices = (
            np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
        )
        self._rows = {}
        self._missed_sources = set()
        self._mean_path = None
        self._version = self.topo.version

    def _bfs_row(self, src_idx: int) -> np.ndarray:
        """Distance row from positional index ``src_idx`` (not cached)."""
        n = len(self._nodes)
        dist = np.full(n, UNREACHABLE, dtype=np.int32)
        dist[src_idx] = 0
        frontier = np.array([src_idx], dtype=np.int64)
        indptr, indices = self._indptr, self._indices
        d = 0
        while frontier.size:
            d += 1
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            # gather all frontier neighbours in one flat index expression
            offsets = np.repeat(
                starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts
            )
            neigh = indices[offsets + np.arange(total)]
            fresh = neigh[dist[neigh] < 0]
            if fresh.size == 0:
                break
            dist[fresh] = d          # duplicate hits write the same level
            frontier = np.unique(fresh)
        self.rows_computed += 1
        return dist

    def _row(self, src_idx: int) -> np.ndarray:
        row = self._rows.get(src_idx)
        if row is None:
            row = self._bfs_row(src_idx)
            self._rows[src_idx] = row
        return row

    def _aggregate_sweep(self) -> None:
        """One pass over all sources: the mean shortest path.

        Rows are memoised along the way only on small topologies (see
        ``_ROW_CACHE_SWEEP_LIMIT``); large sweeps accumulate the sums and
        discard each row, keeping memory O(V).
        """
        self._refresh()
        n = len(self._nodes)
        if n == 0:
            self._mean_path = 0.0
            return
        keep = n <= _ROW_CACHE_SWEEP_LIMIT
        total = 0
        pairs = 0
        for i in range(n):
            row = self._row(i) if keep else self._rows.get(i)
            if row is None:
                row = self._bfs_row(i)
            reach = row[row > 0]      # excludes self (0) and unreachable (-1)
            if reach.size:
                total += int(reach.sum())
                pairs += int(reach.size)
        self._mean_path = total / pairs if pairs else 0.0

    # Queries ----------------------------------------------------------------

    def distance(self, source: NodeId, dest: NodeId) -> int:
        """Hop count, or ``UNREACHABLE`` (-1) if disconnected.

        The overlay is undirected, so either endpoint's row answers the
        query: a cached one is used, the source's first.  With neither
        cached the *destination's* row is computed — replies fan in to
        the node that asked (PLEDGE and ADMIT_REP to the HELP origin), so
        one row serves the round — unless this source already missed
        once: a source that keeps asking is fanning out, and gets its
        own row.  Either way a hub costs at most two rows.
        """
        self._refresh()
        try:
            src_idx = self._index[source]
            dst_idx = self._index[dest]
        except KeyError:
            raise KeyError("endpoint not in topology") from None
        row = self._rows.get(src_idx)
        if row is not None:
            return int(row[dst_idx])
        if dst_idx not in self._rows:
            if src_idx in self._missed_sources:
                return int(self._row(src_idx)[dst_idx])
            self._missed_sources.add(src_idx)
        return int(self._row(dst_idx)[src_idx])

    def mean_shortest_path(self) -> float:
        """Mean hop count over all reachable ordered node pairs.

        On the paper's 5x5 mesh this is ~3.33; the paper rounds the PLEDGE
        cost to 4, which :class:`~repro.network.transport.Transport`
        reproduces via its ``unicast_cost`` override.
        """
        self._refresh()
        if self._mean_path is None:
            self._aggregate_sweep()
        return self._mean_path  # type: ignore[return-value]

    def within(self, source: NodeId, hops: int) -> List[NodeId]:
        """Nodes within ``hops`` of ``source`` (excluding ``source``)."""
        self._refresh()
        row = self._row(self._index[source])
        nodes = self._nodes
        return [
            nodes[i]
            for i in np.flatnonzero((row > 0) & (row <= hops))
        ]


class EagerRouter:
    """The all-pairs oracle the lazy :class:`Router` replaced.

    Precomputes the dense V×V distance matrix (one dict-BFS per source)
    whenever the topology version moves.  O(V·(V+E)) setup and O(V²)
    memory — fine at paper scale, prohibitive at 2.5k+ nodes.  Retained
    as the reference implementation: the property suite pins the lazy
    router observationally equivalent, and the scaling benchmarks quote
    its setup cost as the "before" of the curve.
    """

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self._version = -1
        self._index: Dict[NodeId, int] = {}
        self._matrix: np.ndarray = np.zeros((0, 0), dtype=np.int32)
        self._mean_path: float = 0.0

    def _refresh(self) -> None:
        if self._version == self.topo.version:
            return
        nodes = self.topo.nodes()
        n = len(nodes)
        self._index = {nid: i for i, nid in enumerate(nodes)}
        mat = np.full((n, n), UNREACHABLE, dtype=np.int32)
        for nid in nodes:
            i = self._index[nid]
            for other, d in bfs_distances(self.topo, nid).items():
                mat[i, self._index[other]] = d
        self._matrix = mat
        off_diag = ~np.eye(n, dtype=bool)
        reachable = (mat >= 0) & off_diag
        self._mean_path = float(mat[reachable].mean()) if reachable.any() else 0.0
        self._version = self.topo.version

    def distance(self, source: NodeId, dest: NodeId) -> int:
        self._refresh()
        try:
            return int(self._matrix[self._index[source], self._index[dest]])
        except KeyError:
            raise KeyError("endpoint not in topology") from None

    def mean_shortest_path(self) -> float:
        self._refresh()
        return self._mean_path

    def within(self, source: NodeId, hops: int) -> List[NodeId]:
        self._refresh()
        row = self._matrix[self._index[source]]
        return sorted(nid for nid, i in self._index.items() if 0 < row[i] <= hops)
