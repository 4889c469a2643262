"""Unit tests for message transport and cost accounting."""

import numpy as np
import pytest

from repro.network.faults import FaultManager
from repro.network.generators import (
    mesh,
    paper_topology,
    preferential_attachment,
    torus,
)
from repro.network.routing import Router
from repro.network.transport import CostModel, Transport, UnicastCostMode
from repro.sim.kernel import Simulator
from tests.oracles import live_topology


def make(sim=None, topo=None, **kwargs):
    sim = sim or Simulator()
    topo = topo or paper_topology()
    costs = []
    tr = Transport(sim, topo, on_cost=lambda k, c: costs.append((k, c)), **kwargs)
    return sim, topo, tr, costs


class TestUnicast:
    def test_delivery_and_metadata(self):
        sim, _, tr, _ = make()
        seen = []
        tr.register(6, "ping", seen.append)
        assert tr.unicast(0, 6, "ping", {"v": 1})
        sim.run()
        (d,) = seen
        assert (d.src, d.dst, d.kind) == (0, 6, "ping")
        assert d.payload == {"v": 1}

    def test_cost_is_hop_count_by_default(self):
        sim, _, tr, costs = make()
        tr.register(24, "x", lambda d: None)
        tr.unicast(0, 24, "x", None)
        assert costs == [("x", 8.0)]

    def test_fixed_cost_mode(self):
        sim, topo, tr, costs = make(
            cost_model=CostModel(
                unicast_mode=UnicastCostMode.FIXED, fixed_unicast_cost=4.0
            )
        )
        tr.register(1, "x", lambda d: None)
        tr.unicast(0, 1, "x", None)
        assert costs == [("x", 4.0)]  # paper's PLEDGE charge

    def test_unknown_destination_raises(self):
        _, _, tr, _ = make()
        with pytest.raises(KeyError):
            tr.unicast(0, 999, "x", None)

    def test_no_handler_counts_dropped(self):
        sim, _, tr, _ = make()
        tr.unicast(0, 1, "nobody-listens", None)
        sim.run()
        assert tr.dropped_messages == 1
        assert tr.delivered_messages == 0

    def test_down_source_sends_nothing(self):
        sim = Simulator()
        topo = paper_topology()
        faults = FaultManager(sim, topo)
        costs = []
        tr = Transport(sim, topo, is_up=faults.is_up,
                       on_cost=lambda k, c: costs.append(c))
        faults.crash(0)
        assert not tr.unicast(0, 1, "x", None)
        assert costs == []

    def test_down_destination_still_charged(self):
        sim = Simulator()
        topo = paper_topology()
        faults = FaultManager(sim, topo)
        costs = []
        tr = Transport(sim, topo, is_up=faults.is_up,
                       on_cost=lambda k, c: costs.append(c))
        faults.crash(5)
        assert not tr.unicast(0, 5, "x", None)
        assert len(costs) == 1  # packets travel before being dropped


class TestFlood:
    def test_reaches_all_other_nodes(self):
        sim, topo, tr, _ = make()
        received = []
        for n in topo.nodes():
            tr.register(n, "adv", lambda d, n=n: received.append(n))
        tr.flood(3, "adv", None)
        sim.run()
        assert sorted(received) == [n for n in topo.nodes() if n != 3]

    def test_cost_is_link_count(self):
        _, topo, tr, costs = make()
        tr.flood(0, "adv", None)
        assert costs == [("adv", 40.0)]  # the paper's flood charge

    def test_flood_cost_override(self):
        sim, topo, tr, costs = make(
            cost_model=CostModel(flood_cost_override=1.0)
        )
        tr.flood(0, "adv", None)
        assert costs == [("adv", 1.0)]  # LAN multicast

    def test_neighbors_only_scope(self):
        sim, topo, tr, costs = make()
        received = []
        for n in topo.nodes():
            tr.register(n, "help", lambda d, n=n: received.append(n))
        out = tr.flood(12, "help", None, neighbors_only=True)
        sim.run()
        assert sorted(out) == [7, 11, 13, 17]
        assert sorted(received) == [7, 11, 13, 17]
        # cost is unchanged by scope (the paper's accounting note)
        assert costs == [("help", 40.0)]

    def test_flood_respects_partitions(self):
        sim = Simulator()
        topo = mesh(1, 4)  # line: 0-1-2-3
        faults = FaultManager(sim, topo)
        tr = Transport(sim, topo, is_up=faults.is_up,
                       liveness_version=lambda: faults.version)
        received = []
        for n in topo.nodes():
            tr.register(n, "adv", lambda d, n=n: received.append(n))
        faults.crash(1)  # partitions 0 | 2-3
        tr.flood(0, "adv", None)
        sim.run()
        assert received == []

    def test_flood_cache_invalidated_by_fault(self):
        sim = Simulator()
        topo = mesh(1, 4)
        faults = FaultManager(sim, topo)
        tr = Transport(sim, topo, is_up=faults.is_up,
                       liveness_version=lambda: faults.version)
        assert len(tr.flood(0, "adv", None)) == 3
        faults.crash(3)
        assert len(tr.flood(0, "adv", None)) == 2
        faults.recover(3)
        assert len(tr.flood(0, "adv", None)) == 3

    def test_down_source_floods_nothing(self):
        sim = Simulator()
        topo = paper_topology()
        faults = FaultManager(sim, topo)
        tr = Transport(sim, topo, is_up=faults.is_up)
        faults.crash(0)
        assert tr.flood(0, "adv", None) == []


def make_faulty(topo=None, **kwargs):
    """Transport wired to a FaultManager the way the runner does it."""
    sim = Simulator()
    topo = topo or mesh(1, 4)  # line: 0-1-2-3
    faults = FaultManager(sim, topo)
    costs = []
    tr = Transport(
        sim,
        topo,
        is_up=faults.can_communicate,
        link_up=faults.link_up,
        liveness_version=lambda: faults.version,
        on_cost=lambda k, c: costs.append((k, c)),
        **kwargs,
    )
    return sim, topo, faults, tr, costs


class TestFailedLinks:
    def test_fail_link_partitions_flood(self):
        sim, topo, faults, tr, _ = make_faulty()
        received = []
        for n in topo.nodes():
            tr.register(n, "adv", lambda d, n=n: received.append(n))
        faults.fail_link(1, 2)  # severs the 0-1 | 2-3 bridge
        out = tr.flood(0, "adv", None)
        sim.run()
        assert out == [1]
        assert received == [1]

    def test_fail_link_respected_by_neighbors_only(self):
        sim, topo, faults, tr, _ = make_faulty()
        received = []
        for n in topo.nodes():
            tr.register(n, "help", lambda d, n=n: received.append(n))
        faults.fail_link(0, 1)
        out = tr.flood(1, "help", None, neighbors_only=True)
        sim.run()
        assert out == [2]  # node 0 unreachable over the dead link
        assert received == [2]

    def test_restore_link_heals_flood(self):
        sim, topo, faults, tr, _ = make_faulty()
        faults.fail_link(1, 2)
        assert tr.flood(0, "adv", None) == [1]
        faults.restore_link(1, 2)
        assert tr.flood(0, "adv", None) == [1, 2, 3]

    def test_unicast_routes_around_failed_link(self):
        sim, topo, faults, tr, costs = make_faulty(mesh(2, 2))  # 4-cycle
        tr.register(1, "x", lambda d: None)
        faults.fail_link(0, 1)
        assert tr.unicast(0, 1, "x", None)
        sim.run()
        # direct hop is down; the live route is 0-2-3-1
        assert costs == [("x", 3.0)]

    def test_unicast_blocked_by_failed_bridge(self):
        sim, topo, faults, tr, costs = make_faulty()
        tr.register(3, "x", lambda d: None)
        faults.fail_link(1, 2)
        assert not tr.unicast(0, 3, "x", None)
        assert tr.dropped_messages == 1
        # attempted route still charged, floored at one hop
        assert len(costs) == 1 and costs[0][1] >= 1.0


class TestDeadDestinationCost:
    def test_hops_mode_charges_attempted_route(self):
        sim, topo, faults, tr, costs = make_faulty()
        faults.crash(3)
        assert not tr.unicast(0, 3, "x", None)
        assert costs == [("x", 3.0)]  # full-route hop count toward the corpse

    def test_fixed_mode_charges_fixed(self):
        sim = Simulator()
        topo = paper_topology()
        faults = FaultManager(sim, topo)
        costs = []
        tr = Transport(
            sim, topo,
            is_up=faults.can_communicate,
            liveness_version=lambda: faults.version,
            cost_model=CostModel(
                unicast_mode=UnicastCostMode.FIXED, fixed_unicast_cost=4.0
            ),
            on_cost=lambda k, c: costs.append(c),
        )
        faults.crash(5)
        assert not tr.unicast(0, 5, "x", None)
        assert costs == [4.0]


class TestMulticast:
    def test_explicit_receivers(self):
        sim, _, tr, _ = make()
        seen = []
        for n in (1, 2, 3):
            tr.register(n, "m", lambda d, n=n: seen.append(n))
        out = tr.multicast(0, [3, 1, 2, 0], "m", None)
        sim.run()
        assert out == [1, 2, 3]  # sender excluded, sorted
        assert sorted(seen) == [1, 2, 3]

    def test_explicit_cost(self):
        _, _, tr, costs = make()
        tr.register(1, "m", lambda d: None)
        tr.multicast(0, [1], "m", None, cost=1.0)
        assert costs == [("m", 1.0)]

    def test_default_cost_sums_unicasts(self):
        _, _, tr, costs = make()
        for n in (1, 5):
            tr.register(n, "m", lambda d: None)
        tr.multicast(0, [1, 5], "m", None)
        assert costs == [("m", 2.0)]  # two 1-hop receivers


class TestLatency:
    def test_per_hop_latency_delays_delivery(self):
        sim = Simulator()
        topo = paper_topology()
        tr = Transport(sim, topo, per_hop_latency=0.1)
        arrivals = []
        tr.register(24, "x", lambda d: arrivals.append(sim.now))
        tr.unicast(0, 24, "x", None)
        sim.run()
        assert arrivals == [pytest.approx(0.8)]  # 8 hops x 0.1

    def test_zero_latency_still_asynchronous(self):
        sim = Simulator()
        topo = paper_topology()
        tr = Transport(sim, topo)
        order = []
        tr.register(1, "x", lambda d: order.append("delivered"))
        tr.unicast(0, 1, "x", None)
        order.append("after-send")
        sim.run()
        assert order == ["after-send", "delivered"]

    def test_unregister_silences_node(self):
        sim, _, tr, _ = make()
        seen = []
        tr.register(1, "x", seen.append)
        tr.unregister(1)
        tr.unicast(0, 1, "x", None)
        sim.run()
        assert seen == []


OVERLAYS = {
    "mesh": lambda: mesh(4, 5),
    "torus": lambda: torus(4, 5),
    "scale-free": lambda: preferential_attachment(
        20, 2, np.random.default_rng(11)
    ),
}


def fault_epochs(topo, faults, rng):
    """Walk the overlay through liveness epochs: pristine, random crashes,
    random failed links on top, then half of each restored.  Yields after
    every step."""
    yield
    nodes, links = topo.nodes(), topo.links()
    crashed = [nodes[i] for i in rng.choice(len(nodes), 5, replace=False)]
    for n in crashed:
        faults.crash(n)
    yield
    failed = [links[i] for i in rng.choice(len(links), 8, replace=False)]
    for u, v in failed:
        faults.fail_link(u, v)
    yield
    for n in crashed[:3]:
        faults.recover(n)
    for u, v in failed[:4]:
        faults.restore_link(u, v)
    yield


class TestDemandDrivenRouting:
    """FIXED unicasts consume no hop count, so they answer reachability
    from the epoch's component labels; the decision, the counters and the
    charge must equal what the live router's distance would have
    produced."""

    @pytest.mark.parametrize("family", sorted(OVERLAYS))
    def test_unicast_matches_router_decision_across_epochs(self, family):
        sim, topo, faults, tr, costs = make_faulty(
            OVERLAYS[family](),
            cost_model=CostModel(
                unicast_mode=UnicastCostMode.FIXED, fixed_unicast_cost=4.0
            ),
        )
        for _ in fault_epochs(topo, faults, np.random.default_rng(5)):
            live = Router(live_topology(faults))
            for src in topo.nodes():
                for dst in topo.nodes():
                    before = (tr.sent_messages, tr.dropped_messages, len(costs))
                    ok = tr.unicast(src, dst, "x", None)
                    after = (tr.sent_messages, tr.dropped_messages, len(costs))
                    if not faults.can_communicate(src):
                        assert not ok and after == before
                        continue
                    dead = not faults.can_communicate(dst)
                    reachable = not dead and live.distance(src, dst) >= 0
                    assert ok == reachable
                    assert after == (
                        before[0] + 1, before[1] + (not reachable), before[2] + 1
                    )
                    assert costs[-1] == ("x", 4.0)
            # reachability never touched either router
            assert tr.router.rows_computed == 0
            assert tr.live_router().rows_computed == 0

    @pytest.mark.parametrize("family", sorted(OVERLAYS))
    def test_neighbors_only_flood_charge_is_the_component_link_count(self, family):
        sim, topo, faults, tr, costs = make_faulty(OVERLAYS[family]())
        rng = np.random.default_rng(5)
        isolated = topo.nodes()[0]
        for step, _ in enumerate(fault_epochs(topo, faults, rng)):
            if step >= 2:  # a live source alone in its component
                for n in topo.neighbors(isolated):
                    faults.fail_link(isolated, n)
                faults.recover(isolated)
            for src in topo.nodes():
                if not faults.can_communicate(src):
                    continue
                tr.flood(src, "help", None, neighbors_only=True)
                assert costs[-1] == ("help", float(tr._flood_structure(src)[1]))
            if step >= 2:
                tr.flood(isolated, "help", None, neighbors_only=True)
                assert costs[-1] == ("help", 0.0)

    def test_multicast_skips_unreachable_without_routing(self):
        sim, topo, faults, tr, costs = make_faulty(
            cost_model=CostModel(unicast_mode=UnicastCostMode.FIXED)
        )
        faults.fail_link(1, 2)  # 0-1 | 2-3
        assert tr.multicast(0, [1, 2, 3], "m", None) == [1]
        assert costs == [("m", 4.0)]
        assert tr.live_router().rows_computed == 0

    def test_hops_mode_routes_once_per_unicast(self):
        sim, topo, faults, tr, costs = make_faulty(mesh(2, 2))
        calls = []
        router = tr.live_router()
        distance = router.distance
        router.distance = lambda s, d: calls.append((s, d)) or distance(s, d)
        assert tr.unicast(0, 3, "x", None)
        assert calls == [(0, 3)] and costs == [("x", 2.0)]
        # external callers without a hop count in hand still get one
        assert tr.cost_model.unicast_cost(router, 0, 3) == 2.0
        assert calls == [(0, 3), (0, 3)]
