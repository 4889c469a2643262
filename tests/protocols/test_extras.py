"""Tests for the beyond-paper baselines: null agent and gossip."""

import pytest

from repro.experiments.config import paper_config
from repro.experiments.runner import build_system, run_experiment
from repro.protocols.gossip import GossipAgent
from repro.protocols.registry import make_agent


class TestNullAgent:
    def test_registered(self, make_context):
        for i, name in enumerate(("none", "null", "no-migration")):
            agent = make_agent(name, make_context(i))
            assert (agent.pull, agent.push, agent.respond) == ("none", "none", "none")
            assert agent.help is agent.pledges is agent.community is None

    def test_sends_nothing(self):
        res = run_experiment(paper_config("none", 7.0, horizon=200.0))
        assert res.messages_total == 0.0
        assert res.migration_rate == 0.0

    def test_is_the_floor(self):
        floor = run_experiment(paper_config("none", 7.0, horizon=400.0))
        realtor = run_experiment(paper_config("realtor", 7.0, horizon=400.0))
        assert realtor.admission_probability > floor.admission_probability

    def test_no_candidates_ever(self, make_context, make_task):
        agent = make_agent("none", make_context(0))
        agent.view.update(1, 100.0, 0.0, True, 0.0)  # even with data forced in
        assert agent.candidates(make_task()) == []

    def test_prime_view_is_noop(self, make_context, make_host):
        agent = make_agent("none", make_context(0))
        agent.prime_view({1: make_host(1)})
        assert len(agent.view) == 0


class TestGossipAgent:
    def test_registered_variants(self, make_context):
        a = make_agent("gossip", make_context(0))
        assert isinstance(a, GossipAgent) and a.interval == 1.0
        b = make_agent("gossip-5", make_context(1))
        assert b.interval == 5.0

    def test_interval_validation(self, make_context):
        with pytest.raises(ValueError):
            GossipAgent(make_context(2), interval=0.0)

    def test_epidemic_spread_reaches_everyone(self):
        # with neighbour-scope gossip, information still reaches the whole
        # mesh within O(log N) rounds via transitive digests
        system = build_system(
            paper_config("gossip", 1.0, horizon=30.0).with_(prime_views=False)
        )
        system.run()
        sizes = [len(a.view) for a in system.agents.values()]
        assert min(sizes) == 24  # everyone knows everyone

    def test_rounds_and_merges_counted(self):
        system = build_system(
            paper_config("gossip", 1.0, horizon=20.0).with_(prime_views=False)
        )
        system.run()
        agent = system.agents[0]
        assert agent.rounds >= 18
        assert len(agent.view) > 0  # unprimed: only merged digests fill it

    def test_load_oblivious_cost(self):
        light = run_experiment(paper_config("gossip", 1.0, horizon=300.0))
        heavy = run_experiment(paper_config("gossip", 9.0, horizon=300.0))
        gossip_light = light.messages_for("GOSSIP") + light.messages_for("GOSSIP_ACK")
        gossip_heavy = heavy.messages_for("GOSSIP") + heavy.messages_for("GOSSIP_ACK")
        assert gossip_heavy == pytest.approx(gossip_light, rel=0.05)

    def test_competitive_admission_under_overload(self):
        gossip = run_experiment(paper_config("gossip", 7.0, horizon=400.0))
        floor = run_experiment(paper_config("none", 7.0, horizon=400.0))
        assert gossip.admission_probability > floor.admission_probability + 0.01

    def test_compromised_node_stops_gossiping_fresh_state(self):
        system = build_system(paper_config("gossip", 4.0, horizon=100.0))
        system.faults.compromise(0)
        system.run()
        # node 0 sent no rounds after compromise at t=0
        assert system.agents[0].rounds == 0

    def test_newest_timestamp_wins_on_merge(self):
        system = build_system(paper_config("gossip", 1.0, horizon=5.0))
        agent = system.agents[0]
        agent.view.update(5, 10.0, 0.9, False, timestamp=100.0)
        from repro.protocols.gossip import Digest

        stale = Digest(origin=1, entries=((5, 99.0, 0.0, True, 50.0),))
        agent._merge(stale)
        assert agent.view.get(5).availability == 10.0  # newer kept
