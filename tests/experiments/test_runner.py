"""Tests for system assembly and experiment execution."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, run_experiment
from repro.node.task import Task
from repro.protocols.base import ProtocolConfig
from repro.workload.fleet import FleetConfig


def short(**overrides):
    base = dict(protocol="realtor", arrival_rate=5.0, horizon=200.0, seed=1)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestBuildSystem:
    def test_components_per_node(self):
        s = build_system(short())
        assert set(s.hosts) == set(s.agents) == set(s.admissions)
        assert len(s.hosts) == 25

    def test_protocol_selected(self):
        from repro.protocols.pure_push import PurePushAgent

        s = build_system(short(protocol="push-1"))
        assert all(isinstance(a, PurePushAgent) for a in s.agents.values())

    def test_views_primed_within_scope(self):
        s = build_system(short())
        # neighbour scope: the centre node knows its 4 neighbours at t=0
        assert s.agents[12].view.known_nodes() == [7, 11, 13, 17]

    def test_priming_disabled(self):
        s = build_system(short(prime_views=False))
        assert all(len(a.view) == 0 for a in s.agents.values())

    def test_topology_variants(self):
        assert build_system(short(topology="torus")).topo.num_links == 50
        assert build_system(short(topology="full", rows=2, cols=3)).topo.num_links == 15
        assert build_system(short(topology="ring")).topo.num_links == 25
        with pytest.raises(ValueError):
            build_system(short(topology="moebius"))

    def test_unknown_cost_mode_rejected(self):
        with pytest.raises(ValueError):
            build_system(short(unicast_cost="psychic"))


def stack(system, nid):
    """What the per-node builder produced for ``nid``, comparably."""
    host, agent = system.hosts[nid], system.agents[nid]
    observer = system.admissions[nid].on_request_observed
    return (
        system.fleet_params[nid],
        host.queue.capacity,
        host.monitor.threshold,
        host.queue.speed,
        type(agent),
        agent.ctx.all_nodes is system.all_nodes,
        # the admission layer feeds this agent's own pledge policy
        observer is not None and observer.__self__ is agent.pledges,
        agent._started,
    )


class TestAddNode:
    def test_joiner_stack_equals_the_t0_build_of_the_same_node(self):
        cfg = short(topology="ring", fleet=FleetConfig.heterogeneous(), seed=11)
        at_t0 = build_system(cfg.with_(nodes=10))
        joined = build_system(cfg.with_(nodes=9))
        joined.add_node(9, attach_to=[0, 8])
        assert stack(joined, 9) == stack(at_t0, 9)
        assert stack(joined, 9)[-2:] == (True, True)
        assert joined.all_nodes == at_t0.all_nodes == list(range(10))
        # one builder: the old nodes' stacks agree too
        assert stack(joined, 4) == stack(at_t0, 4)

    def test_joiner_reaches_the_system_wide_node_list(self):
        # Fails on the frozen t=0 snapshot: a network-scope gossip agent
        # and the random policy could never target a mid-run joiner.
        s = build_system(
            short(
                protocol="gossip",
                protocol_config=ProtocolConfig(scope="network"),
                policy="random-25",  # k >= |others|: select returns them all
            )
        )
        s.run(until=10.0)
        s.add_node(25)
        assert 25 in s.agents[0]._peers()
        picks = s.coordinator.policy.select(Task(size=1.0, arrival_time=10.0, origin=0), [])
        assert 25 in picks and len(picks) == 25
        # and the joiner sees everyone, as before
        assert sorted(s.agents[25]._peers()) == list(range(25))


class TestRunExperiment:
    def test_result_is_complete(self):
        res = run_experiment(short())
        assert res.generated > 0
        assert res.horizon == 200.0
        assert 0.0 <= res.admission_probability <= 1.0
        assert res.params["protocol"] == "realtor"

    def test_determinism_same_seed(self):
        a = run_experiment(short(seed=5))
        b = run_experiment(short(seed=5))
        assert a.generated == b.generated
        assert a.messages_total == b.messages_total
        assert a.admission_probability == b.admission_probability

    def test_different_seeds_differ(self):
        a = run_experiment(short(seed=1))
        b = run_experiment(short(seed=2))
        assert a.generated != b.generated or a.messages_total != b.messages_total

    def test_common_random_numbers_across_protocols(self):
        # same seed => identical workload for every protocol
        a = run_experiment(short(protocol="push-1"))
        b = run_experiment(short(protocol="pull-100"))
        assert a.generated == b.generated

    def test_help_interval_reported_for_adaptive(self):
        res = run_experiment(short(protocol="realtor"))
        assert res.help_interval_mean is not None
        res = run_experiment(short(protocol="push-1"))
        assert res.help_interval_mean is None

    def test_light_load_no_rejections(self):
        res = run_experiment(short(arrival_rate=1.0))
        assert res.admission_probability == 1.0
        assert res.migration_rate == 0.0

    def test_overload_has_rejections_and_migrations(self):
        res = run_experiment(short(arrival_rate=10.0, horizon=500.0))
        assert res.rejected > 0
        assert res.admitted_migrated > 0
        assert res.admission_probability < 0.95

    def test_attack_plan_installs(self):
        from repro.workload.attack import AttackPlan

        plan = AttackPlan(((50.0, "crash", 0),))
        res = run_experiment(short(horizon=300.0, arrival_rate=8.0), attack=plan)
        assert res.lost >= 0  # ran to completion with the fault active

    def test_system_run_returns_now(self):
        s = build_system(short())
        assert s.run() == 200.0
