"""Unit tests for the overlay topology."""

import pytest

from repro.network.topology import Topology
from tests.oracles import connected_components, is_connected


class TestConstruction:
    def test_empty(self):
        t = Topology()
        assert t.num_nodes == 0 and t.num_links == 0
        assert not is_connected(t)

    def test_nodes_and_links(self):
        t = Topology(nodes=[0, 1, 2], links=[(0, 1), (1, 2)])
        assert t.nodes() == [0, 1, 2]
        assert t.links() == [(0, 1), (1, 2)]

    def test_links_normalised_undirected(self):
        t = Topology()
        t.add_link(5, 2)
        assert t.links() == [(2, 5)]
        assert t.has_link(2, 5) and t.has_link(5, 2)

    def test_add_link_creates_nodes(self):
        t = Topology()
        t.add_link(1, 2)
        assert t.has_node(1) and t.has_node(2)

    def test_self_loop_rejected(self):
        t = Topology()
        with pytest.raises(ValueError):
            t.add_link(1, 1)

    def test_duplicate_link_ignored(self):
        t = Topology()
        t.add_link(0, 1)
        v = t.version
        t.add_link(1, 0)
        assert t.num_links == 1
        assert t.version == v  # no spurious invalidation


class TestMutation:
    def test_remove_link(self):
        t = Topology(links=[(0, 1), (1, 2)])
        t.remove_link(0, 1)
        assert not t.has_link(0, 1)
        assert 1 in t.neighbors(2)

    def test_remove_missing_link_raises(self):
        t = Topology(nodes=[0, 1])
        with pytest.raises(KeyError):
            t.remove_link(0, 1)

    def test_remove_node_drops_incident_links(self):
        t = Topology(links=[(0, 1), (1, 2), (0, 2)])
        t.remove_node(1)
        assert t.nodes() == [0, 2]
        assert t.links() == [(0, 2)]
        assert 1 not in t.neighbors(0)

    def test_remove_missing_node_raises(self):
        with pytest.raises(KeyError):
            Topology().remove_node(9)

    def test_version_increments_on_mutation(self):
        t = Topology()
        v0 = t.version
        t.add_node(0)
        t.add_link(0, 1)
        t.remove_link(0, 1)
        assert t.version > v0


class TestQueries:
    def test_neighbors_sorted(self):
        t = Topology(links=[(0, 3), (0, 1), (0, 2)])
        assert t.neighbors(0) == [1, 2, 3]

    def test_degree(self):
        t = Topology(links=[(0, 1), (0, 2)])
        assert t.degree(0) == 2 and t.degree(1) == 1

    def test_contains_and_iter(self):
        t = Topology(nodes=[2, 0, 1])
        assert 1 in t
        assert list(t) == [0, 1, 2]

    def test_copy_is_independent(self):
        t = Topology(links=[(0, 1)])
        c = t.copy()
        c.add_link(1, 2)
        assert t.num_links == 1 and c.num_links == 2

    def test_subgraph_induced(self):
        t = Topology(links=[(0, 1), (1, 2), (2, 3)])
        s = t.subgraph([1, 2, 3])
        assert s.nodes() == [1, 2, 3]
        assert s.links() == [(1, 2), (2, 3)]


class TestConnectivity:
    def test_connected_single_component(self):
        t = Topology(links=[(0, 1), (1, 2)])
        assert is_connected(t)
        assert connected_components(t) == [frozenset({0, 1, 2})]

    def test_components_largest_first(self):
        t = Topology(links=[(0, 1), (1, 2), (5, 6)])
        t.add_node(9)
        comps = connected_components(t)
        assert [len(c) for c in comps] == [3, 2, 1]

    def test_disconnection_after_cut(self):
        t = Topology(links=[(0, 1), (1, 2)])
        t.remove_link(1, 2)
        assert not is_connected(t)
