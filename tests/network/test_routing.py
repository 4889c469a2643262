"""Unit tests for routing, cross-validated against networkx."""

import networkx as nx
import pytest

from repro.network.generators import mesh, paper_topology, ring, star
from repro.network.routing import Router, bfs_distances
from repro.network.topology import Topology
from tests.oracles import shortest_path


def to_nx(topo):
    G = nx.Graph()
    G.add_nodes_from(topo.nodes())
    G.add_edges_from(topo.links())
    return G


class TestBfs:
    def test_distances_match_networkx_on_mesh(self):
        topo = paper_topology()
        G = to_nx(topo)
        for src in (0, 12, 24):
            ours = bfs_distances(topo, src)
            theirs = nx.single_source_shortest_path_length(G, src)
            assert ours == dict(theirs)

    def test_unknown_source_raises(self):
        with pytest.raises(KeyError):
            bfs_distances(Topology(), 0)

    def test_unreachable_nodes_absent(self):
        t = Topology(links=[(0, 1)])
        t.add_node(5)
        assert 5 not in bfs_distances(t, 0)


class TestShortestPath:
    def test_path_endpoints_and_length(self):
        topo = paper_topology()
        path = shortest_path(topo, 0, 24)
        assert path[0] == 0 and path[-1] == 24
        assert len(path) - 1 == 8  # manhattan distance corner-to-corner

    def test_path_edges_exist(self):
        topo = paper_topology()
        path = shortest_path(topo, 3, 21)
        for a, b in zip(path, path[1:]):
            assert topo.has_link(a, b)

    def test_same_source_dest(self):
        topo = mesh(2, 2)
        assert shortest_path(topo, 1, 1) == [1]

    def test_disconnected_returns_none(self):
        t = Topology(links=[(0, 1)])
        t.add_node(5)
        assert shortest_path(t, 0, 5) is None

    def test_deterministic(self):
        topo = paper_topology()
        assert shortest_path(topo, 0, 12) == shortest_path(topo, 0, 12)


class TestRouter:
    def test_distance_matrix_matches_networkx(self):
        topo = mesh(4, 5)
        router = Router(topo)
        G = to_nx(topo)
        lengths = dict(nx.all_pairs_shortest_path_length(G))
        for u in topo.nodes():
            for v in topo.nodes():
                assert router.distance(u, v) == lengths[u][v]

    def test_mean_shortest_path_matches_networkx(self):
        topo = paper_topology()
        router = Router(topo)
        G = to_nx(topo)
        assert router.mean_shortest_path() == pytest.approx(
            nx.average_shortest_path_length(G)
        )

    def test_paper_mesh_mean_is_ten_thirds(self):
        # the 5x5 mesh's mean shortest path is 10/3 ~ 3.33 (the paper
        # rounds the PLEDGE cost up to 4)
        router = Router(paper_topology())
        assert router.mean_shortest_path() == pytest.approx(10.0 / 3.0)

    def test_diameter(self):
        for topo, diameter in ((paper_topology(), 8), (ring(6), 3)):
            router = Router(topo)
            nodes = topo.nodes()
            assert max(router.distance(a, b) for a in nodes for b in nodes) == diameter

    def test_eccentricity_center_vs_corner(self):
        router = Router(paper_topology())
        assert max(router.distance(12, b) for b in range(25)) == 4
        assert max(router.distance(0, b) for b in range(25)) == 8

    def test_within_radius(self):
        router = Router(paper_topology())
        assert router.within(12, 1) == [7, 11, 13, 17]

    def test_cache_invalidated_on_mutation(self):
        topo = ring(6)
        router = Router(topo)
        assert router.distance(0, 3) == 3
        topo.add_link(0, 3)
        assert router.distance(0, 3) == 1

    def test_unreachable_is_negative(self):
        t = Topology(links=[(0, 1)])
        t.add_node(7)
        router = Router(t)
        assert router.distance(0, 7) == -1

    def test_unknown_endpoint_raises(self):
        router = Router(mesh(2, 2))
        with pytest.raises(KeyError):
            router.distance(0, 99)

    def test_star_distances(self):
        router = Router(star(6))
        assert router.distance(1, 2) == 2
        assert router.distance(0, 5) == 1
