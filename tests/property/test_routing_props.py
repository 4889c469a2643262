"""Property tests: routing metrics against networkx on random graphs."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.routing import Router, bfs_distances
from repro.network.topology import Topology
from tests.oracles import shortest_path


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


def to_nx(topo):
    G = nx.Graph()
    G.add_nodes_from(topo.nodes())
    G.add_edges_from(topo.links())
    return G


class TestRoutingProperties:
    @given(random_topologies())
    @settings(max_examples=50, deadline=None)
    def test_distances_match_networkx(self, topo):
        G = to_nx(topo)
        router = Router(topo)
        src = topo.nodes()[0]
        ours = {n: router.distance(src, n) for n in topo.nodes()}
        theirs = nx.single_source_shortest_path_length(G, src)
        for n in topo.nodes():
            assert ours[n] == theirs.get(n, -1)

    @given(random_topologies())
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, topo):
        router = Router(topo)
        nodes = topo.nodes()[:8]
        for a in nodes:
            for b in nodes:
                for c in nodes:
                    dab, dbc, dac = (
                        router.distance(a, b),
                        router.distance(b, c),
                        router.distance(a, c),
                    )
                    if dab >= 0 and dbc >= 0:
                        assert dac >= 0
                        assert dac <= dab + dbc

    @given(random_topologies())
    @settings(max_examples=50, deadline=None)
    def test_distance_symmetric(self, topo):
        router = Router(topo)
        nodes = topo.nodes()
        for a in nodes[:10]:
            for b in nodes[:10]:
                assert router.distance(a, b) == router.distance(b, a)

    @given(random_topologies())
    @settings(max_examples=50, deadline=None)
    def test_path_length_equals_distance(self, topo):
        router = Router(topo)
        nodes = topo.nodes()
        src, dst = nodes[0], nodes[-1]
        path = shortest_path(topo, src, dst)
        d = router.distance(src, dst)
        if d < 0:
            assert path is None
        else:
            assert path is not None
            assert len(path) - 1 == d
            for a, b in zip(path, path[1:]):
                assert topo.has_link(a, b)

    @given(random_topologies())
    @settings(max_examples=30, deadline=None)
    def test_bfs_levels_differ_by_one_across_links(self, topo):
        src = topo.nodes()[0]
        dist = bfs_distances(topo, src)
        for u, v in topo.links():
            if u in dist and v in dist:
                assert abs(dist[u] - dist[v]) <= 1
