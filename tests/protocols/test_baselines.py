"""Behavioural tests for the four baseline rows of the protocol table."""

import pytest

from repro.core.messages import KIND_ADV, KIND_HELP, KIND_PLEDGE
from repro.network.generators import mesh
from repro.network.transport import Transport
from repro.node.host import Host
from repro.node.task import Task, TaskOutcome
from repro.protocols.base import ProtocolConfig, ProtocolContext
from repro.protocols.registry import make_agent
from repro.sim.kernel import Simulator


class FloodLog(Transport):
    """A transport that also records the ``(src, kind)`` of every flood."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.floods = []

    def flood(self, src, kind, payload, **kwargs):
        self.floods.append((src, kind))
        return super().flood(src, kind, payload, **kwargs)


def build_cluster(protocol, config=None, rows=3, cols=3):
    sim = Simulator(seed=2)
    topo = mesh(rows, cols)
    costs = []
    transport = FloodLog(sim, topo, on_cost=lambda k, c: costs.append((k, c)))
    cfg = config or ProtocolConfig(scope="network")
    hosts, agents = {}, {}
    for nid in topo.nodes():
        hosts[nid] = Host(sim, nid, capacity=100.0, threshold=cfg.threshold)
        ctx = ProtocolContext(sim=sim, transport=transport, host=hosts[nid],
                              config=cfg, all_nodes=list(topo.nodes()))
        agents[nid] = make_agent(protocol, ctx)
        agents[nid].start()
    return sim, topo, hosts, agents, costs


def fill(sim, host, usage):
    t = Task(size=usage * host.queue.capacity, arrival_time=sim.now, origin=host.node_id)
    host.try_accept(t, TaskOutcome.LOCAL)


def arrive(sim, agent, size=5.0):
    agent.notify_task_arrival(Task(size=size, arrival_time=sim.now, origin=agent.node_id))


def count(costs, kind):
    return sum(1 for k, _ in costs if k == kind)


class TestPurePush:
    def test_periodic_advertisement(self):
        sim, topo, _, agents, costs = build_cluster("push-1")
        sim.run(until=5.0)
        # 9 nodes x ~5 rounds of ADV floods (phases stagger them)
        advs = count(costs, KIND_ADV)
        assert 9 * 4 <= advs <= 9 * 5

    def test_load_independent(self):
        sim, topo, hosts, agents, costs = build_cluster("push-1")
        sim.run(until=3.0)
        quiet = count(costs, KIND_ADV)
        for nid in topo.nodes():
            fill(sim, hosts[nid], 0.95)
        sim.run(until=6.0)
        loaded = count(costs, KIND_ADV) - quiet
        assert abs(loaded - quiet) <= 9  # one round of slack

    def test_views_track_advertisements(self):
        sim, _, hosts, agents, _ = build_cluster("push-1")
        fill(sim, hosts[4], 0.5)
        sim.run(until=2.0)
        entry = agents[0].view.get(4)
        assert entry is not None
        # advertised within the first two rounds; decay means headroom is
        # at least the 50s it had at t=0
        assert 50.0 <= entry.availability <= 55.0

    def test_ignores_task_arrivals(self):
        sim, _, hosts, agents, costs = build_cluster("push-1")
        fill(sim, hosts[0], 0.95)
        before = count(costs, KIND_HELP)
        arrive(sim, agents[0])
        sim.run(until=0.5)
        assert count(costs, KIND_HELP) == before == 0

    def test_stop_halts_timer(self):
        sim, _, _, agents, costs = build_cluster("push-1")
        for a in agents.values():
            a.stop()
        sim.run(until=5.0)
        assert count(costs, KIND_ADV) == 0


class TestAdaptivePush:
    def test_silent_without_crossings(self):
        sim, _, _, agents, costs = build_cluster("push-.9")
        sim.run(until=10.0)
        assert count(costs, KIND_ADV) == 0

    def test_advertises_on_both_crossings(self):
        sim, _, hosts, agents, costs = build_cluster("push-.9")
        fill(sim, hosts[0], 0.95)   # up
        sim.run(until=20.0)         # drains below 0.9 -> down
        assert count(costs, KIND_ADV) == 2
        assert agents[0].transport.floods == [(0, KIND_ADV)] * 2

    def test_up_crossing_marks_unavailable(self):
        sim, _, hosts, agents, _ = build_cluster("push-.9")
        fill(sim, hosts[0], 0.95)
        sim.run(until=0.5)
        assert agents[4].view.get(0).available is False

    def test_down_crossing_marks_available(self):
        sim, _, hosts, agents, _ = build_cluster("push-.9")
        fill(sim, hosts[0], 0.95)
        sim.run(until=20.0)
        assert agents[4].view.get(0).available is True


class TestPurePull:
    def test_help_on_every_qualifying_arrival(self):
        sim, _, hosts, agents, costs = build_cluster("pull-.9")
        fill(sim, hosts[0], 0.95)
        for t in (1.0, 2.0, 3.0):
            sim.at(t, arrive, sim, agents[0])
        sim.run(until=4.0)
        assert count(costs, KIND_HELP) == 3  # no rate limit

    def test_available_peers_pledge_every_help(self):
        sim, topo, hosts, agents, costs = build_cluster("pull-.9")
        fill(sim, hosts[0], 0.95)
        sim.at(1.0, arrive, sim, agents[0])
        sim.at(2.0, arrive, sim, agents[0])
        sim.run(until=3.0)
        assert count(costs, KIND_PLEDGE) == 2 * (topo.num_nodes - 1)

    def test_no_help_below_threshold(self):
        sim, _, hosts, agents, costs = build_cluster("pull-.9")
        arrive(sim, agents[0])
        sim.run(until=1.0)
        assert count(costs, KIND_HELP) == 0

    def test_view_fed_by_pledges(self):
        sim, _, hosts, agents, _ = build_cluster("pull-.9")
        fill(sim, hosts[5], 0.4)
        fill(sim, hosts[0], 0.95)
        arrive(sim, agents[0])
        sim.run(until=1.0)
        assert agents[0].view.get(5).availability == pytest.approx(60.0)


class TestAdaptivePull:
    def test_interval_gates_helps(self):
        sim, _, hosts, agents, costs = build_cluster("pull-100")
        # make all peers loaded so rounds fail and the interval grows
        for nid in hosts:
            fill(sim, hosts[nid], 0.95)
        for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
            sim.at(t, arrive, sim, agents[0])
        sim.run(until=9.0)
        helps = count(costs, KIND_HELP)
        assert 1 <= helps < 8  # strictly fewer than pure pull's 8

    def test_one_pledge_per_help(self):
        sim, topo, hosts, agents, costs = build_cluster("pull-100")
        fill(sim, hosts[0], 0.95)
        arrive(sim, agents[0])
        sim.run(until=1.0)
        assert count(costs, KIND_PLEDGE) == topo.num_nodes - 1
        # no crossing pledges ever (the REALTOR difference)
        fill(sim, hosts[1], 0.95)
        sim.run(until=2.0)
        assert count(costs, KIND_PLEDGE) == topo.num_nodes - 1

    def test_fixed_window_variant(self):
        cfg = ProtocolConfig(scope="network", upper_limit=100.0)
        sim, _, hosts, agents, costs = build_cluster("pull-100-fixed", config=cfg)
        fill(sim, hosts[0], 0.95)
        arrive(sim, agents[0])                      # sent (first ever)
        sim.at(49.0, fill, sim, hosts[0], 0.5)      # keep the queue loaded
        sim.at(50.0, arrive, sim, agents[0])        # inside window: gated
        sim.at(148.0, fill, sim, hosts[0], 0.9)
        sim.at(150.0, arrive, sim, agents[0])       # outside window: sent
        sim.run(until=200.0)
        assert count(costs, KIND_HELP) == 2
        assert agents[0].help.adaptive is False
        assert agents[0].help.interval == 100.0  # fixed, never adapted


class TestNeighborScope:
    def test_neighbor_scope_limits_reach(self):
        cfg = ProtocolConfig(scope="neighbors")
        sim, topo, hosts, agents, costs = build_cluster("pull-.9", config=cfg)
        fill(sim, hosts[4], 0.95)  # centre node: 4 neighbours
        arrive(sim, agents[4])
        sim.run(until=1.0)
        assert count(costs, KIND_PLEDGE) == 4
        # only neighbours learned anything
        assert agents[0].view.get(4) is None or 4 not in agents[0].view


@pytest.mark.parametrize("protocol,keys", [
    ("pull-.9", {"helps", "pledges"}),
    ("push-1", {"advertisements"}),
    ("push-.9", {"advertisements"}),
    ("pull-100", {"helps", "pledges", "help_interval"}),
    ("realtor", {"helps", "pledges", "help_interval", "community_size",
                 "memberships", "crossing_pledges"}),
    ("none", set()),
])
def test_stats_report_each_part(protocol, keys):
    """A row builds, and sends through, exactly the parts it names."""
    sim, _, hosts, agents, costs = build_cluster(protocol)
    fill(sim, hosts[0], 0.95)
    arrive(sim, agents[0])
    sim.run(until=2.0)
    agent = agents[0]
    assert (agent.help is not None) == ("help_interval" in keys)
    assert (agent.pledges is not None) == ("pledges" in keys)
    assert (agent.community is not None) == ("community_size" in keys)
    assert (agent.memberships is not None) == ("memberships" in keys)
    assert count(costs, KIND_HELP) == ("helps" in keys)
    # every other node is idle, so each answers the one HELP once
    assert count(costs, KIND_PLEDGE) == (8 if "pledges" in keys else 0)
    assert ((0, KIND_ADV) in agent.transport.floods) == ("advertisements" in keys)
