"""Property tests for the scale-tier topology generators.

The scaling axis (nodes 25 → 10k) leans on three guarantees from the
generator layer: every scenario family yields a *connected* overlay (a
disconnected seed topology would make admission probabilities
incomparable across tiers), degrees stay within the family's bounds, and
the edge set is a pure function of the topology seed — the common-random-
numbers contract that lets replications across run seeds share one
overlay.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import generators as g
from tests.oracles import is_connected


class TestPreferentialAttachmentProperties:
    @given(st.integers(4, 60), st.integers(1, 3), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_connected_with_degree_floor(self, n, m, seed):
        if n < m + 2:
            n = m + 2
        topo = g.preferential_attachment(n, m, np.random.default_rng(seed))
        assert topo.num_nodes == n
        assert is_connected(topo)
        # the seed clique has degree >= m, every later node attaches to m
        # distinct targets, and attachment only raises degrees
        assert all(topo.degree(v) >= m for v in topo.nodes())
        # edge budget: clique + m per attached node, no duplicates
        expected = m * (m + 1) // 2 + m * (n - m - 1)
        assert topo.num_links == expected

    @given(st.integers(5, 40), st.integers(1, 3), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_same_seed_identical_edge_set(self, n, m, seed):
        if n < m + 2:
            n = m + 2
        a = g.preferential_attachment(n, m, np.random.default_rng(seed))
        b = g.preferential_attachment(n, m, np.random.default_rng(seed))
        assert a.links() == b.links()

    @given(st.integers(6, 40), st.integers(0, 2**10))
    @settings(max_examples=20, deadline=None)
    def test_different_seeds_usually_differ(self, n, seed):
        a = g.preferential_attachment(n, 2, np.random.default_rng(seed))
        b = g.preferential_attachment(n, 2, np.random.default_rng(seed + 1))
        # not guaranteed per-example, but a hub-biased sampler on 6+ nodes
        # collides only by astronomical luck; catch "rng ignored" bugs
        if a.links() == b.links():
            c = g.preferential_attachment(n + 1, 2, np.random.default_rng(seed))
            d = g.preferential_attachment(
                n + 1, 2, np.random.default_rng(seed + 1)
            )
            assert c.links() != d.links()


class TestScenarioTopologyProperties:
    @given(
        st.sampled_from(g.SCENARIO_KINDS),
        st.integers(9, 120),
        st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_connected_exact_size_and_seed_determinism(self, kind, n, seed):
        if kind == "random" and (n * 4) % 2 != 0:
            n += 1
        try:
            topo = g.scenario_topology(kind, n, seed=seed)
        except ValueError:
            # prime-ish sizes the grid families cannot factor; the
            # documented contract is a clear error, not a fallback
            assert kind in ("mesh", "torus")
            return
        assert topo.num_nodes == n
        assert is_connected(topo)
        again = g.scenario_topology(kind, n, seed=seed)
        assert topo.links() == again.links()

    @given(st.integers(9, 120), st.integers(0, 2**8))
    @settings(max_examples=25, deadline=None)
    def test_random_family_degree_exact(self, n, seed):
        if (n * 4) % 2 != 0:
            n += 1
        topo = g.scenario_topology("random", n, degree=4, seed=seed)
        assert all(topo.degree(v) == 4 for v in topo.nodes())

    @given(st.integers(3, 12))
    @settings(max_examples=10, deadline=None)
    def test_square_torus_degree_and_links(self, k):
        # perfect squares with side >= 3 always factor as k x k
        topo = g.square_torus(k * k)
        assert all(topo.degree(v) == 4 for v in topo.nodes())
        assert topo.num_links == 2 * topo.num_nodes
