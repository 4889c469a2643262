"""Topology generators.

The paper's evaluation uses a 5x5 mesh (25 nodes, 40 links).  The
scalability ablation (A3 in DESIGN.md) sweeps mesh sizes; the attack study
uses other shapes to vary connectivity.  All generators number nodes
``0..n-1`` deterministically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .topology import Topology

__all__ = [
    "mesh",
    "torus",
    "ring",
    "star",
    "full_mesh",
    "heap_tree",
    "binary_tree",
    "random_regularish",
    "preferential_attachment",
    "square_mesh",
    "square_torus",
    "scenario_topology",
    "paper_topology",
    "SCENARIO_KINDS",
]


def mesh(rows: int, cols: int) -> Topology:
    """Rectangular grid: ``rows*cols`` nodes, ``rows*(cols-1)+cols*(rows-1)``
    links.  ``mesh(5, 5)`` is the paper's 25-node / 40-link topology.

    Node ``(r, c)`` gets id ``r*cols + c``.
    """
    if rows < 1 or cols < 1:
        raise ValueError("mesh dimensions must be >= 1")
    topo = Topology(nodes=range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            nid = r * cols + c
            if c + 1 < cols:
                topo.add_link(nid, nid + 1)
            if r + 1 < rows:
                topo.add_link(nid, nid + cols)
    return topo


def torus(rows: int, cols: int) -> Topology:
    """Mesh with wrap-around links (degree 4 everywhere, rows/cols >= 3)."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs rows, cols >= 3")
    topo = mesh(rows, cols)
    for r in range(rows):
        topo.add_link(r * cols, r * cols + cols - 1)
    for c in range(cols):
        topo.add_link(c, (rows - 1) * cols + c)
    return topo


def ring(n: int) -> Topology:
    """Cycle of ``n >= 3`` nodes."""
    if n < 3:
        raise ValueError("ring needs n >= 3")
    topo = Topology(nodes=range(n))
    for i in range(n):
        topo.add_link(i, (i + 1) % n)
    return topo


def star(n: int) -> Topology:
    """Hub node 0 linked to ``n-1`` leaves (models a fragile centre)."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    topo = Topology(nodes=range(n))
    for i in range(1, n):
        topo.add_link(0, i)
    return topo


def full_mesh(n: int) -> Topology:
    """Complete graph on ``n`` nodes (the LAN-cluster overlay of Section 6)."""
    if n < 2:
        raise ValueError("full mesh needs n >= 2")
    topo = Topology(nodes=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            topo.add_link(i, j)
    return topo


def heap_tree(n: int) -> Topology:
    """Binary tree of ``n >= 1`` nodes in heap order: node ``i`` links to ``(i-1)//2``."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    topo = Topology(nodes=range(n))
    for i in range(1, n):
        topo.add_link((i - 1) // 2, i)
    return topo


def binary_tree(depth: int) -> Topology:
    """Complete binary tree of given depth (root = 0, ``2**(depth+1)-1`` nodes)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return heap_tree(2 ** (depth + 1) - 1)


def random_regularish(
    n: int,
    degree: int,
    rng: Optional[np.random.Generator] = None,
    max_tries: int = 200,
) -> Topology:
    """Connected random graph with (approximately) uniform degree.

    A simple pairing construction: shuffle a multiset with each node
    repeated ``degree`` times and pair adjacent entries.  A pairing that
    would form a self-loop or duplicate link is *repaired* by swapping in
    the first later stub that avoids the clash (rejecting the whole
    shuffle instead makes small/dense combinations like ``n=9, degree=4``
    practically unbuildable); only when no later stub works, or the
    result is disconnected, is the shuffle retried.  Not a uniform random
    regular graph, but adequate for sensitivity studies.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if n < 2 or degree < 1 or degree >= n:
        raise ValueError("need 2 <= degree+1 <= n")
    if (n * degree) % 2 != 0:
        raise ValueError("n * degree must be even")
    for _ in range(max_tries):
        arr = np.repeat(np.arange(n), degree)
        rng.shuffle(arr)
        stubs = [int(x) for x in arr]
        topo = Topology(nodes=range(n))
        ok = True
        for i in range(0, len(stubs), 2):
            u = stubs[i]
            for j in range(i + 1, len(stubs)):
                v = stubs[j]
                if v != u and not topo.has_link(u, v):
                    stubs[i + 1], stubs[j] = stubs[j], stubs[i + 1]
                    topo.add_link(u, v)
                    break
            else:
                ok = False
                break
        if ok and topo.is_connected():
            return topo
    raise RuntimeError(
        f"failed to build a connected degree-{degree} graph on {n} nodes "
        f"after {max_tries} tries"
    )


def preferential_attachment(
    n: int,
    m: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> Topology:
    """Scale-free graph via Barabási–Albert preferential attachment.

    Starts from an ``(m+1)``-clique; each subsequent node attaches to
    ``m`` *distinct* existing nodes drawn proportionally to degree (the
    classic repeated-endpoint-list sampler).  Connected by construction,
    minimum degree ``m``, mean degree → ``2m``, and a heavy-tailed hub
    distribution — the topology family whose hubs stress flood fan-out
    and survivability very differently from the paper's mesh.
    Deterministic given the ``rng`` seed.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if m < 1:
        raise ValueError("attachment count m must be >= 1")
    if n < m + 2:
        raise ValueError(f"need n >= m + 2 (got n={n}, m={m})")
    topo = Topology(nodes=range(n))
    # one entry per edge endpoint => sampling it is degree-proportional
    endpoints: list = []
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            topo.add_link(i, j)
            endpoints.append(i)
            endpoints.append(j)
    for v in range(m + 1, n):
        targets: set = set()
        while len(targets) < m:
            targets.add(endpoints[int(rng.integers(len(endpoints)))])
        for t in sorted(targets):
            topo.add_link(v, t)
            endpoints.append(v)
            endpoints.append(t)
    return topo


def _near_square_factors(n: int, min_side: int) -> tuple:
    """``(rows, cols)`` with ``rows*cols == n``, ``rows`` the largest
    divisor <= sqrt(n), both sides >= ``min_side``."""
    best = None
    r = int(np.sqrt(n))
    while r >= min_side:
        if n % r == 0 and n // r >= min_side:
            best = (r, n // r)
            break
        r -= 1
    if best is None:
        raise ValueError(
            f"cannot factor {n} nodes into a grid with sides >= {min_side}; "
            f"pick a composite node count (e.g. 250 = 10x25, 2500 = 50x50)"
        )
    return best


def square_mesh(n: int) -> Topology:
    """Mesh on ``n`` nodes with the most nearly square grid shape."""
    rows, cols = _near_square_factors(n, 1)
    return mesh(rows, cols)


def square_torus(n: int) -> Topology:
    """Torus on ``n`` nodes with the most nearly square grid shape.

    The workhorse of the scaling tiers: ``square_torus(25)`` is 5x5,
    ``square_torus(250)`` is 10x25, ``square_torus(2500)`` is 50x50 and
    ``square_torus(10_000)`` is 100x100 — degree 4 everywhere, so the
    per-node flood cost stays constant while the diameter grows.
    """
    rows, cols = _near_square_factors(n, 3)
    return torus(rows, cols)


#: the scenario families `scenario_topology` can build at any size
SCENARIO_KINDS = ("mesh", "torus", "random", "scale-free")


def scenario_topology(
    kind: str,
    n: int,
    *,
    degree: int = 4,
    seed: int = 0,
) -> Topology:
    """A large-topology scenario: ``n`` nodes of the given family.

    ``degree`` is the target mean degree (exact for ``random``,
    asymptotic for ``scale-free``, fixed at 4 for ``torus``); ``seed``
    pins the edge set of the randomised families — the same seed always
    yields the identical topology, independently of the experiment seed,
    so replications across run seeds share one overlay (common random
    numbers).
    """
    if kind == "mesh":
        return square_mesh(n)
    if kind == "torus":
        return square_torus(n)
    if kind == "random":
        return random_regularish(n, degree, np.random.default_rng(seed))
    if kind == "scale-free":
        return preferential_attachment(
            n, m=max(1, degree // 2), rng=np.random.default_rng(seed)
        )
    raise ValueError(f"unknown scenario kind: {kind!r} (one of {SCENARIO_KINDS})")


def paper_topology() -> Topology:
    """The exact evaluation topology of Section 5: 5x5 mesh, 25 nodes, 40 links."""
    topo = mesh(5, 5)
    assert topo.num_nodes == 25 and topo.num_links == 40
    return topo
