"""Unit tests for topology generators."""

import numpy as np
import pytest

from repro.network import generators as g
from tests.oracles import is_connected


class TestMesh:
    def test_paper_topology_is_25_nodes_40_links(self):
        t = g.paper_topology()
        assert t.num_nodes == 25
        assert t.num_links == 40

    def test_mesh_link_count_formula(self):
        for rows, cols in [(2, 2), (3, 4), (5, 5), (1, 7)]:
            t = g.mesh(rows, cols)
            assert t.num_nodes == rows * cols
            assert t.num_links == rows * (cols - 1) + cols * (rows - 1)

    def test_mesh_corner_degrees(self):
        t = g.mesh(5, 5)
        assert t.degree(0) == 2           # corner
        assert t.degree(2) == 3           # edge
        assert t.degree(12) == 4          # centre

    def test_mesh_connected(self):
        assert is_connected(g.mesh(4, 6))

    def test_mesh_rejects_zero(self):
        with pytest.raises(ValueError):
            g.mesh(0, 5)


class TestOtherShapes:
    def test_torus_uniform_degree_4(self):
        t = g.torus(4, 4)
        assert all(t.degree(n) == 4 for n in t.nodes())
        assert is_connected(t)

    def test_torus_rejects_small(self):
        with pytest.raises(ValueError):
            g.torus(2, 4)

    def test_ring(self):
        t = g.ring(6)
        assert t.num_links == 6
        assert all(t.degree(n) == 2 for n in t.nodes())

    def test_ring_rejects_small(self):
        with pytest.raises(ValueError):
            g.ring(2)

    def test_star_hub_degree(self):
        t = g.star(8)
        assert t.degree(0) == 7
        assert all(t.degree(n) == 1 for n in range(1, 8))

    def test_full_mesh_complete(self):
        t = g.full_mesh(5)
        assert t.num_links == 10
        assert all(t.degree(n) == 4 for n in t.nodes())

    def test_binary_tree_counts(self):
        t = g.binary_tree(3)
        assert t.num_nodes == 15
        assert t.num_links == 14
        assert is_connected(t)

    def test_binary_tree_depth_zero(self):
        t = g.binary_tree(0)
        assert t.num_nodes == 1 and t.num_links == 0


class TestRandomRegularish:
    def test_degree_and_connectivity(self):
        rng = np.random.default_rng(0)
        t = g.random_regularish(20, 4, rng)
        assert t.num_nodes == 20
        assert is_connected(t)
        assert all(t.degree(n) == 4 for n in t.nodes())

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            g.random_regularish(5, 3, np.random.default_rng(0))

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            g.random_regularish(4, 4, np.random.default_rng(0))

    def test_deterministic_given_rng_seed(self):
        t1 = g.random_regularish(12, 3, np.random.default_rng(7))
        t2 = g.random_regularish(12, 3, np.random.default_rng(7))
        assert t1.links() == t2.links()


class TestPreferentialAttachment:
    def test_connected_with_degree_floor(self):
        t = g.preferential_attachment(50, 2, np.random.default_rng(0))
        assert t.num_nodes == 50
        assert is_connected(t)
        assert min(t.degree(v) for v in t.nodes()) >= 2

    def test_edge_count_formula(self):
        # (m+1)-clique seed plus m links per attached node
        for n, m in [(10, 1), (20, 2), (30, 3)]:
            t = g.preferential_attachment(n, m, np.random.default_rng(1))
            assert t.num_links == m * (m + 1) // 2 + m * (n - m - 1)

    def test_hubs_emerge(self):
        # heavy tail: some node well above the 2m mean degree
        t = g.preferential_attachment(400, 2, np.random.default_rng(3))
        assert max(t.degree(v) for v in t.nodes()) >= 3 * 4

    def test_deterministic_given_rng_seed(self):
        t1 = g.preferential_attachment(40, 2, np.random.default_rng(9))
        t2 = g.preferential_attachment(40, 2, np.random.default_rng(9))
        assert t1.links() == t2.links()

    def test_validation(self):
        with pytest.raises(ValueError):
            g.preferential_attachment(10, 0)
        with pytest.raises(ValueError):
            g.preferential_attachment(3, 2)


class TestSquareShapes:
    def test_square_torus_tier_factorisations(self):
        for n, degree4 in [(25, True), (250, True), (2500, True), (10_000, True)]:
            t = g.square_torus(n)
            assert t.num_nodes == n
            assert t.num_links == 2 * n
            assert all(t.degree(v) == 4 for v in t.nodes())

    def test_square_mesh_matches_paper_at_25(self):
        t = g.square_mesh(25)
        assert t.num_nodes == 25 and t.num_links == 40
        assert t.links() == g.paper_topology().links()

    def test_unfactorable_sizes_raise(self):
        with pytest.raises(ValueError):
            g.square_torus(7)       # prime: 7x1 violates the min side
        with pytest.raises(ValueError):
            g.square_torus(26)      # 13x2 still below the torus min side


class TestScenarioTopology:
    def test_dispatch_families(self):
        for kind in g.SCENARIO_KINDS:
            t = g.scenario_topology(kind, 36, seed=2)
            assert t.num_nodes == 36
            assert is_connected(t)

    def test_seed_pins_randomised_families(self):
        for kind in ("random", "scale-free"):
            a = g.scenario_topology(kind, 30, seed=5)
            b = g.scenario_topology(kind, 30, seed=5)
            c = g.scenario_topology(kind, 30, seed=6)
            assert a.links() == b.links()
            assert a.links() != c.links()

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            g.scenario_topology("hypercube", 16)
