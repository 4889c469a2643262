"""Property tests: the lazy Router is observationally equivalent to the
eager all-pairs oracle it replaced.

The lazy :class:`~repro.network.routing.Router` (CSR adjacency, on-demand
numpy BFS rows) is only a legal substitution because every query answers
exactly what the dense-matrix :class:`~repro.network.routing.EagerRouter`
would have answered — distances, aggregates, and the exact float of the
mean shortest path (the PLEDGE cost feeds straight into the figures).
These tests pin that equivalence on seeded random topologies, across
topology mutations, and across fail-link/restore-link fault sequences.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.faults import FaultManager
from repro.network.routing import EagerRouter, Router, shortest_path
from repro.network.topology import Topology
from repro.sim.kernel import Simulator


@st.composite
def random_topologies(draw):
    """Connected-ish random graphs with 2-20 nodes."""
    n = draw(st.integers(2, 20))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    topo = Topology(nodes=range(n))
    # random spanning tree first (guarantees connectivity), extra edges after
    order = list(rng.permutation(n))
    for i in range(1, n):
        parent = order[int(rng.integers(i))]
        topo.add_link(order[i], parent)
    extra = draw(st.integers(0, n))
    for _ in range(extra):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            topo.add_link(u, v)
    return topo


def assert_equivalent(lazy: Router, eager: EagerRouter, topo: Topology) -> None:
    """Every public query agrees, including the exact aggregate floats."""
    nodes = topo.nodes()
    for a in nodes:
        for b in nodes:
            assert lazy.distance(a, b) == eager.distance(a, b)
    # bit-identical, not approx: both reduce exact int sums in float64
    assert lazy.mean_shortest_path() == eager.mean_shortest_path()
    assert lazy.diameter() == eager.diameter()
    for a in nodes:
        assert lazy.eccentricity(a) == eager.eccentricity(a)
        assert lazy.distances_from(a) == eager.distances_from(a)
        assert lazy.within(a, 2) == eager.within(a, 2)


class TestLazyEagerEquivalence:
    @given(random_topologies())
    @settings(max_examples=50, deadline=None)
    def test_all_queries_match_eager(self, topo):
        assert_equivalent(Router(topo), EagerRouter(topo), topo)

    @given(random_topologies())
    @settings(max_examples=30, deadline=None)
    def test_matrix_matches_eager(self, topo):
        lazy_nodes, lazy_mat = Router(topo).matrix()
        eager_nodes, eager_mat = EagerRouter(topo).matrix()
        assert lazy_nodes == eager_nodes
        assert np.array_equal(lazy_mat, eager_mat)

    @given(random_topologies(), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_equivalence_survives_topology_growth(self, topo, seed):
        """The same Router object stays correct across add_link/add_node."""
        rng = np.random.default_rng(seed)
        lazy, eager = Router(topo), EagerRouter(topo)
        lazy.mean_shortest_path()  # warm the caches that must invalidate
        n = topo.num_nodes
        topo.add_node(n)
        topo.add_link(n, int(rng.integers(n)))
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and not topo.has_link(u, v):
            topo.add_link(u, v)
        assert_equivalent(lazy, eager, topo)

    @given(random_topologies())
    @settings(max_examples=30, deadline=None)
    def test_query_order_is_irrelevant(self, topo):
        """Aggregate-first and row-first query orders agree (the sweep
        shares the row cache with point queries)."""
        a = Router(topo)
        b = Router(topo)
        nodes = topo.nodes()
        mean_first = a.mean_shortest_path()
        rows_first = [b.distance(nodes[0], x) for x in nodes]
        assert rows_first == [a.distance(nodes[0], x) for x in nodes]
        assert b.mean_shortest_path() == mean_first


class TestEitherEndpointRow:
    """``distance`` answers from whichever endpoint's row is cached and, on
    a miss, computes only one of the two — legal only because the overlay
    is undirected, so pin it against the eager matrix."""

    @given(random_topologies(), st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_point_queries_match_eager_under_interleaved_mutations(
        self, topo, seed
    ):
        rng = np.random.default_rng(seed)
        lazy, eager = Router(topo), EagerRouter(topo)
        for _ in range(60):
            n = topo.num_nodes
            u, v = int(rng.integers(n)), int(rng.integers(n))
            roll = rng.random()
            if roll < 0.1 and u != v:
                topo.add_link(u, v)
            elif roll < 0.2 and topo.has_link(u, v):
                topo.remove_link(u, v)  # may disconnect: -1 must agree too
            elif roll < 0.25:
                topo.add_node(n)
                topo.add_link(n, u)
            else:
                assert lazy.distance(u, v) == eager.distance(u, v)
                assert lazy.distance(v, u) == eager.distance(v, u)

    @given(random_topologies())
    @settings(max_examples=30, deadline=None)
    def test_a_hub_costs_at_most_two_rows(self, topo):
        """``rows_computed``: a miss computes one row — the destination's,
        or the source's own once that source has missed before — and a
        cached row of either endpoint is always used first."""
        nodes = topo.nodes()
        hub, others = nodes[-1], nodes[:-1]
        fan_in = Router(topo)
        for src in others:  # replies converging on the hub
            fan_in.distance(src, hub)
        assert fan_in.rows_computed == 1
        for dst in others:  # the hub's own sends reuse its row
            fan_in.distance(hub, dst)
        assert fan_in.rows_computed == 1

        fan_out = Router(topo)
        for dst in others:  # first miss: dst's row; second: the hub's own
            fan_out.distance(hub, dst)
        assert fan_out.rows_computed == min(2, len(others))
        for src in others:
            fan_out.distance(src, hub)
        assert fan_out.rows_computed == min(2, len(others))


class TestSmallestIdPaths:
    @given(random_topologies())
    @settings(max_examples=40, deadline=None)
    def test_paths_deterministic_and_lexicographically_smallest(self, topo):
        """``shortest_path`` always returns the same path, its length is
        the router distance, and among all shortest paths it is the
        lexicographically smallest (BFS over sorted neighbours discovers
        nodes in lexicographic path order, so the first parent wins)."""
        import networkx as nx

        nodes = topo.nodes()
        src, dst = nodes[0], nodes[-1]
        path = shortest_path(topo, src, dst)
        assert path == shortest_path(topo, src, dst)
        d = Router(topo).distance(src, dst)
        if d < 0:
            assert path is None
            return
        assert path is not None and len(path) - 1 == d
        G = nx.Graph()
        G.add_nodes_from(nodes)
        G.add_edges_from(topo.links())
        canonical = min(
            [int(x) for x in p] for p in nx.all_shortest_paths(G, src, dst)
        )
        assert [int(x) for x in path] == canonical


@st.composite
def fault_sequences(draw):
    """A topology plus an interleaved fail/restore-link schedule."""
    topo = draw(random_topologies())
    links = topo.links()
    ops = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, len(links) - 1)),
            min_size=1,
            max_size=8,
        )
    )
    return topo, links, ops


class TestEquivalenceUnderFaults:
    @given(fault_sequences())
    @settings(max_examples=30, deadline=None)
    def test_live_overlay_equivalence_across_fail_restore(self, case):
        """After every fail_link/restore_link step the lazy and eager
        routers agree on the *live* overlay the fault model exposes."""
        topo, links, ops = case
        sim = Simulator()
        faults = FaultManager(sim, topo)
        failed = set()
        for restore, idx in ops:
            u, v = links[idx]
            if restore:
                faults.restore_link(u, v)
                failed.discard((u, v))
            else:
                faults.fail_link(u, v)
                failed.add((u, v))
            live = faults.live_topology()
            assert live.num_links == len(links) - len(failed)
            assert_equivalent(Router(live), EagerRouter(live), live)
