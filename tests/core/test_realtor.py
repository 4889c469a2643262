"""Behavioural tests for the REALTOR row over a real transport."""

import pytest

from repro.core.messages import KIND_HELP, KIND_PLEDGE
from repro.network.generators import mesh
from repro.network.transport import Transport
from repro.node.host import Host
from repro.node.task import Task, TaskOutcome
from repro.protocols.base import ProtocolConfig, ProtocolContext
from repro.protocols.registry import make_agent
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer


def build_cluster(n_rows=3, n_cols=3, config=None, seed=1):
    """A mesh of REALTOR-row agents on a shared transport."""
    sim = Simulator(seed=seed, trace=Tracer(enabled=True))
    topo = mesh(n_rows, n_cols)
    costs = []
    transport = Transport(sim, topo, on_cost=lambda k, c: costs.append((k, c)))
    cfg = config or ProtocolConfig(scope="network")
    hosts, agents = {}, {}
    for nid in topo.nodes():
        hosts[nid] = Host(sim, nid, capacity=100.0, threshold=cfg.threshold)
        ctx = ProtocolContext(sim=sim, transport=transport, host=hosts[nid],
                              config=cfg, all_nodes=list(topo.nodes()))
        agents[nid] = make_agent("realtor", ctx)
        agents[nid].start()
    return sim, topo, transport, hosts, agents, costs


def fill(sim, host, usage):
    t = Task(size=usage * host.queue.capacity, arrival_time=sim.now, origin=host.node_id)
    host.try_accept(t, TaskOutcome.LOCAL)
    return t


def crossing_pledges(sim, node):
    """PLEDGEs ``node`` sent to its organizers on threshold crossings."""
    return sum(r.payload["organizers"] for r in sim.trace.select("crossing-pledge", node=node))


def arrive(sim, agent, size=5.0):
    task = Task(size=size, arrival_time=sim.now, origin=agent.node_id)
    agent.notify_task_arrival(task)
    return task


class TestHelpTrigger:
    def test_no_help_below_threshold(self):
        sim, _, _, hosts, agents, costs = build_cluster()
        arrive(sim, agents[0], size=5.0)  # queue empty: 5% usage
        sim.run(until=1.0)
        assert not any(k == KIND_HELP for k, _ in costs)

    def test_help_flooded_when_threshold_would_be_exceeded(self):
        sim, _, _, hosts, agents, costs = build_cluster()
        fill(sim, hosts[0], 0.88)
        arrive(sim, agents[0], size=5.0)  # 88 + 5 = 93 > 90
        sim.run(until=1.0)
        assert sum(1 for k, _ in costs if k == KIND_HELP) == 1

    def test_help_rate_limited_by_interval(self):
        sim, _, _, hosts, agents, costs = build_cluster()
        fill(sim, hosts[0], 0.95)
        arrive(sim, agents[0])
        arrive(sim, agents[0])  # same instant: gated
        sim.run(until=0.5)
        assert sum(1 for k, _ in costs if k == KIND_HELP) == 1


class TestPledgeResponse:
    def test_available_nodes_pledge(self):
        sim, topo, _, hosts, agents, costs = build_cluster()
        fill(sim, hosts[0], 0.95)
        arrive(sim, agents[0])
        sim.run(until=1.0)
        pledges = sum(1 for k, _ in costs if k == KIND_PLEDGE)
        assert pledges == topo.num_nodes - 1  # everyone else is idle

    def test_loaded_nodes_stay_silent(self):
        sim, topo, _, hosts, agents, costs = build_cluster()
        for nid in topo.nodes():
            if nid != 0:
                fill(sim, hosts[nid], 0.95)
        fill(sim, hosts[0], 0.95)
        arrive(sim, agents[0])
        sim.run(until=0.5)
        assert sum(1 for k, _ in costs if k == KIND_PLEDGE) == 0

    def test_pledges_build_organizer_community(self):
        sim, topo, _, hosts, agents, _ = build_cluster()
        fill(sim, hosts[0], 0.95)
        arrive(sim, agents[0])
        sim.run(until=1.0)
        assert agents[0].community.size() == topo.num_nodes - 1

    def test_pledges_update_view(self):
        sim, _, _, hosts, agents, _ = build_cluster()
        fill(sim, hosts[4], 0.5)
        fill(sim, hosts[0], 0.95)
        arrive(sim, agents[0])
        sim.run(until=1.0)
        entry = agents[0].view.get(4)
        assert entry is not None
        assert entry.availability == pytest.approx(50.0)
        assert entry.available


class TestCrossingPledges:
    def test_member_reports_upward_crossing(self):
        sim, _, _, hosts, agents, costs = build_cluster()
        fill(sim, hosts[0], 0.95)
        arrive(sim, agents[0])     # node 1 joins node 0's community
        sim.run(until=1.0)
        before = sum(1 for k, _ in costs if k == KIND_PLEDGE)
        fill(sim, hosts[1], 0.95)  # node 1 crosses up
        sim.run(until=2.0)
        after = sum(1 for k, _ in costs if k == KIND_PLEDGE)
        assert after > before
        assert crossing_pledges(sim, 1) >= 1
        # organizer's view now marks node 1 unavailable
        assert agents[0].view.get(1).available is False

    def test_member_reports_recovery(self):
        sim, _, _, hosts, agents, _ = build_cluster()
        fill(sim, hosts[0], 0.95)
        arrive(sim, agents[0])
        sim.run(until=1.0)
        fill(sim, hosts[1], 0.95)
        sim.run(until=30.0)  # node 1 drains below 0.9 -> crossing down
        entry = agents[0].view.get(1)
        assert entry.available is True

    def test_non_member_does_not_report(self):
        sim, _, _, hosts, agents, _ = build_cluster()
        # node 1 never saw a HELP, so crossing produces no pledges
        fill(sim, hosts[1], 0.95)
        sim.run(until=1.0)
        assert crossing_pledges(sim, 1) == 0


class TestAlgorithmHIntegration:
    def test_interval_shrinks_when_resources_found(self):
        sim, _, _, hosts, agents, _ = build_cluster()
        fill(sim, hosts[0], 0.95)
        arrive(sim, agents[0])
        sim.run(until=1.0)
        assert agents[0].help.interval < 1.0  # rewarded

    def test_interval_grows_when_system_loaded(self):
        sim, topo, _, hosts, agents, _ = build_cluster()
        for nid in topo.nodes():
            fill(sim, hosts[nid], 0.95)
        arrive(sim, agents[0])
        sim.run(until=5.0)
        assert agents[0].help.interval > 1.0  # penalised

    def test_candidates_ranked_by_availability(self):
        sim, _, _, hosts, agents, _ = build_cluster()
        fill(sim, hosts[1], 0.7)
        fill(sim, hosts[2], 0.2)
        fill(sim, hosts[0], 0.95)
        arrive(sim, agents[0])
        sim.run(until=1.0)
        task = Task(size=5.0, arrival_time=sim.now, origin=0)
        ranked = agents[0].candidates(task)
        # idle nodes first (100 headroom), node 2 (80) before node 1 (30)
        assert ranked.index(2) < ranked.index(1)


class TestMembershipLapse:
    def test_a_lapsed_membership_ends_instead_of_renewing(self):
        """A HELP a member does not pledge to renews a live membership;
        past ``membership_ttl`` of organizer silence it ends it instead."""
        sim, _, _, hosts, agents, _ = build_cluster(
            config=ProtocolConfig(scope="network", membership_ttl=2.0)
        )
        fill(sim, hosts[0], 0.95)
        arrive(sim, agents[0])  # HELP at t=0: every idle node joins
        sim.run(until=1.0)
        assert 0 in agents[1].memberships and 0 in agents[2].memberships
        fill(sim, hosts[1], 0.99)  # node 1 stops pledging
        sim.run(until=5.0)
        arrive(sim, agents[0])  # the next HELP, 5 s after the last
        sim.run(until=6.0)
        assert 0 not in agents[1].memberships  # lapsed at t=2, not revived
        assert 0 in agents[2].memberships  # pledged again: rejoined


class TestLifecycle:
    def test_double_start_rejected(self):
        sim, _, _, _, agents, _ = build_cluster()
        with pytest.raises(RuntimeError):
            agents[0].start()

    def test_stats_exposed(self):
        sim, _, _, hosts, agents, _ = build_cluster()
        agent = agents[0]
        assert agent.help.interval > 0
        assert agent.community.size() == 0
        assert agent.memberships.count() == 0
        assert crossing_pledges(sim, 0) == 0

    def test_stop_cancels_help_timer(self):
        sim, _, _, hosts, agents, _ = build_cluster()
        fill(sim, hosts[0], 0.95)
        arrive(sim, agents[0])
        agents[0].stop()
        sim.run(until=10.0)
        assert agents[0].help.penalties == 0
