"""Scale-tier smoke suite: the 2500-node tier must actually work.

The benchmark harness times the 2.5k-10k tiers; this suite *verifies*
them at tier-1 cost.  The torus has a closed-form hop distance, so the
lazy router is checked at 2500 nodes against an analytic oracle instead
of the eager all-pairs baseline (which takes seconds there — that gap is
the whole point of the lazy rewrite).  A flood fan-out and one short
end-to-end REALTOR cell prove the tier is live all the way up the stack.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, run_experiment
from repro.network.impairments import ImpairmentConfig
from repro.network.generators import square_torus
from repro.network.routing import Router
from repro.network.transport import Transport
from repro.sim.kernel import Simulator

SIDE = 50
NODES = SIDE * SIDE


def torus_distance(a: int, b: int) -> int:
    """Closed-form hop count on the 50x50 torus (ids are row-major)."""
    ra, ca = divmod(a, SIDE)
    rb, cb = divmod(b, SIDE)
    dr = abs(ra - rb)
    dc = abs(ca - cb)
    return min(dr, SIDE - dr) + min(dc, SIDE - dc)


class TestRoutingAt2500:
    def test_lazy_rows_match_analytic_torus_distances(self):
        topo = square_torus(NODES)
        router = Router(topo)
        # spread of sources: corners of the grid, centre, arbitrary interior
        for src in (0, 49, 2450, 1275, 833):
            got = router.distances_from(src)
            assert len(got) == NODES
            for dst in (0, 1, 50, 1275, 2499, 1234):
                assert got[dst] == torus_distance(src, dst)
        # the whole check touched a handful of rows, not the V x V matrix
        assert router.rows_computed == 5

    def test_aggregates_match_analytic_values(self):
        topo = square_torus(NODES)
        router = Router(topo)
        assert router.diameter() == SIDE  # 25 + 25: half-way around both axes
        assert router.eccentricity(0) == SIDE
        # Each axis contributes a mean min-wrap offset of
        # (0 + sum_{d=1..24} 2d + 25) / 50 = 12.5, so the mean over all
        # ordered pairs is 25.0; excluding the n self-pairs rescales it
        # by n/(n-1).
        expected = 25.0 * NODES / (NODES - 1)
        assert abs(router.mean_shortest_path() - expected) < 1e-9


class TestFloodAt2500:
    def test_flood_reaches_whole_overlay_at_link_cost(self):
        sim = Simulator()
        topo = square_torus(NODES)
        costs = []
        transport = Transport(
            sim, topo, on_cost=lambda kind, cost: costs.append(cost)
        )
        seen = []
        for node in range(NODES):
            transport.register(node, "adv", lambda d: seen.append(d.dst))
        transport.flood(0, "adv", None)
        sim.run()
        assert len(seen) == NODES - 1
        assert set(seen) == set(range(1, NODES))
        assert costs == [2.0 * NODES]  # degree-4 torus: 2n links


class TestEndToEndCellAt2500:
    def test_short_realtor_cell_completes(self):
        cfg = ExperimentConfig(
            protocol="realtor",
            topology="torus",
            nodes=NODES,
            arrival_rate=250.0,  # offered load 0.5 at task mean 5
            horizon=5.0,
            seed=1,
        )
        result = run_experiment(cfg)
        assert result.params["nodes"] == NODES
        assert result.generated > 800
        assert 0.0 < result.admission_probability <= 1.0

    def test_scale_free_cell_completes(self):
        cfg = ExperimentConfig(
            protocol="realtor",
            topology="scale-free",
            nodes=500,
            topology_seed=3,
            arrival_rate=50.0,
            horizon=5.0,
            seed=1,
        )
        result = run_experiment(cfg)
        assert result.params["topology"] == "scale-free"
        assert result.generated > 150
        assert 0.0 < result.admission_probability <= 1.0


def hot_cell(**overrides) -> ExperimentConfig:
    """REALTOR at load 0.95 with 20 s queues: discovery actually runs."""
    return ExperimentConfig(
        protocol="realtor",
        topology="torus",
        nodes=NODES,
        arrival_rate=0.95 * NODES / 5.0,
        queue_capacity=20.0,
        horizon=10.0,
        seed=1,
        **overrides,
    )


def outcome(system) -> dict:
    """Everything of a finished run that routing could have perturbed."""
    result, transport = system.result(), system.transport
    return {
        "generated": result.generated,
        "admitted_local": result.admitted_local,
        "admitted_migrated": result.admitted_migrated,
        "rejected": result.rejected,
        "completed": result.completed,
        "lost": result.lost,
        "messages_total": result.messages_total,
        "messages_by_kind": result.messages_by_kind,
        "response_time_mean": result.response_time_mean,
        "sent": transport.sent_messages,
        "delivered": transport.delivered_messages,
        "dropped": transport.dropped_messages,
    }


#: ``outcome`` of ``hot_cell`` under each hop-count consumer, recorded on
#: the commit before demand-driven routing
HOT_CELL_BEFORE = {
    "hops": (
        dict(unicast_cost="hops"),
        {
            "generated": 4740, "admitted_local": 4523, "admitted_migrated": 184,
            "rejected": 33, "completed": 2038, "lost": 0,
            "messages_total": 1591773.0,
            "messages_by_kind": {"ADMIT_REP": 216.0, "ADMIT_REQ": 216.0,
                                 "HELP": 1590000.0, "PLEDGE": 1341.0},
            "response_time_mean": 2.698694552571149,
            "sent": 2091, "delivered": 3045, "dropped": 0,
        },
    ),
    "latency": (
        dict(per_hop_latency=0.001),
        {
            "generated": 4740, "admitted_local": 4523, "admitted_migrated": 184,
            "rejected": 33, "completed": 2038, "lost": 0,
            "messages_total": 1597092.0,
            "messages_by_kind": {"ADMIT_REP": 864.0, "ADMIT_REQ": 864.0,
                                 "HELP": 1590000.0, "PLEDGE": 5364.0},
            "response_time_mean": 2.6986965152796873,
            "sent": 2091, "delivered": 3045, "dropped": 0,
        },
    ),
    "lossy": (
        dict(impairments=ImpairmentConfig(loss_rate=0.02)),
        {
            "generated": 4740, "admitted_local": 4524, "admitted_migrated": 177,
            "rejected": 35, "completed": 2042, "lost": 0,
            "messages_total": 1586900.0,
            "messages_by_kind": {"ADMIT_REP": 836.0, "ADMIT_REQ": 860.0,
                                 "HELP": 1580000.0, "PLEDGE": 5204.0},
            "response_time_mean": 2.699246323899878,
            "sent": 2041, "delivered": 2933, "dropped": 56,
        },
    ),
}


class TestDemandDrivenRoutingAt2500:
    def test_default_config_never_computes_a_bfs_row(self):
        """Fixed charge, zero latency, no impairments: ~2000 unicasts and
        ~800 HELP floods, and neither router is asked for a distance."""
        system = build_system(hot_cell())
        system.run()
        result = system.result()
        assert result.admitted_migrated == 184
        assert result.messages_total == 1597092.0
        transport = system.transport
        assert transport.sent_messages == 2091
        assert transport.router.rows_computed == 0
        assert transport.live_router().rows_computed == 0
        # HELP floods read the link count off the epoch, not a per-source
        # receiver tuple
        assert not transport._flood_cache

    @pytest.mark.parametrize("consumer", sorted(HOT_CELL_BEFORE))
    def test_hop_consumers_still_route_and_reproduce_their_results(self, consumer):
        overrides, before = HOT_CELL_BEFORE[consumer]
        system = build_system(hot_cell(**overrides))
        system.run()
        assert outcome(system) == before
        assert system.transport.live_router().rows_computed > 0
