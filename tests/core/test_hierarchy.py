"""Tests for the inter-community (Section 7) extension."""

import gc

import pytest

from repro.core.hierarchy import GroupDirectory, partition_groups
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, run_experiment
from repro.experiments.store import result_to_canonical_json
from repro.network.generators import mesh, paper_topology
from repro.node.task import Task, TaskOutcome
from repro.protocols.hierarchy import HierarchicalRealtorAgent
from tests.oracles import is_connected


class TestPartition:
    def test_partition_covers_all_nodes_once(self):
        topo = paper_topology()
        groups = partition_groups(topo, 9)
        flat = [n for g in groups for n in g]
        assert sorted(flat) == topo.nodes()
        assert len(flat) == len(set(flat))

    def test_group_sizes_bounded(self):
        groups = partition_groups(paper_topology(), 9)
        assert all(len(g) <= 9 for g in groups)
        assert len(groups) >= 3  # 25 nodes / 9

    def test_groups_connected(self):
        topo = mesh(6, 6)
        for group in partition_groups(topo, 7):
            sub = topo.subgraph(group)
            assert is_connected(sub)

    def test_group_size_one(self):
        groups = partition_groups(mesh(2, 2), 1)
        assert groups == [[0], [1], [2], [3]]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_groups(mesh(2, 2), 0)

    def test_deterministic(self):
        a = partition_groups(paper_topology(), 9)
        b = partition_groups(paper_topology(), 9)
        assert a == b


class TestGroupDirectory:
    def test_membership_lookup(self):
        d = GroupDirectory.from_topology(paper_topology(), 9)
        for node in paper_topology().nodes():
            assert node in d.members(node)

    def test_gateway_is_lowest_live_member(self):
        d = GroupDirectory.from_topology(paper_topology(), 9)
        gi = d.group_of(0)
        assert d.gateway(gi) == min(d.groups[gi])
        # with node 0 down the next lowest takes over
        assert d.gateway(gi, is_up=lambda n: n != 0) == sorted(d.groups[gi])[1]

    def test_gateway_none_when_group_dead(self):
        d = GroupDirectory.from_topology(mesh(2, 2), 4)
        assert d.gateway(0, is_up=lambda n: False) is None

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError):
            GroupDirectory([[0, 1], [1, 2]])


def hier_system(rows=6, cols=6, rate=None, horizon=300.0, seed=2):
    n = rows * cols
    rate = rate if rate is not None else 1.2 * n / 5.0
    cfg = ExperimentConfig(
        protocol="realtor-hier",
        arrival_rate=rate,
        rows=rows,
        cols=cols,
        horizon=horizon,
        seed=seed,
        unicast_cost="hops",
    )
    return build_system(cfg)


class TestHierarchicalAgent:
    def test_registry_builds_hier_agents(self):
        system = hier_system()
        assert all(
            isinstance(a, HierarchicalRealtorAgent) for a in system.agents.values()
        )
        # all agents share one directory
        dirs = {id(a.directory) for a in system.agents.values()}
        assert len(dirs) == 1

    def test_views_primed_within_group_only(self):
        system = hier_system()
        for agent in system.agents.values():
            group = set(agent.directory.members(agent.node_id))
            assert set(agent.view.known_nodes()) <= group

    def test_help_stays_in_group(self):
        system = hier_system()
        agent = system.agents[0]
        host = system.hosts[0]
        big = Task(size=95.0, arrival_time=0.0, origin=0)
        host.try_accept(big, TaskOutcome.LOCAL)
        agent.notify_task_arrival(Task(size=5.0, arrival_time=0.0, origin=0))
        system.sim.run(until=0.5)
        # only group members learned about node 0's community
        group = set(agent.directory.members(0))
        for nid, other in system.agents.items():
            if nid != 0 and 0 in other.memberships:
                assert nid in group

    def test_escalation_on_exhausted_group(self):
        system = hier_system(horizon=50.0)
        agent = system.agents[0]
        group = agent.directory.members(0)
        # saturate the whole group so the local round fails
        for nid in group:
            system.hosts[nid].try_accept(
                Task(size=95.0, arrival_time=0.0, origin=nid), TaskOutcome.LOCAL
            )
        agent.notify_task_arrival(Task(size=5.0, arrival_time=0.0, origin=0))
        system.sim.run(until=10.0)
        assert agent.escalations >= 1
        # a remote candidate appeared in the view
        remote = [n for n in agent.view.known_nodes() if n not in group]
        assert remote

    def test_end_to_end_admission_comparable_to_flat(self):
        hier = hier_system(horizon=400.0)
        hier.run()
        hres = hier.result()

        flat_cfg = hier.cfg.with_(protocol="realtor")
        from repro.experiments.runner import run_experiment

        fres = run_experiment(flat_cfg)
        assert hres.admission_probability > fres.admission_probability - 0.03

    def test_hierarchy_cuts_message_cost_on_large_mesh(self):
        hier = hier_system(rows=8, cols=8, horizon=400.0)
        hier.run()
        hres = hier.result()
        from repro.experiments.runner import run_experiment

        fres = run_experiment(hier.cfg.with_(protocol="realtor"))
        assert hres.messages_total < fres.messages_total * 0.6

    def test_stats_include_escalations(self):
        """One escalation per failed local round, counted from zero."""
        system = hier_system(horizon=50.0)
        assert {a.escalations for a in system.agents.values()} == {0}
        agent = system.agents[0]
        for nid in agent.directory.members(0):
            system.hosts[nid].try_accept(
                Task(size=95.0, arrival_time=0.0, origin=nid), TaskOutcome.LOCAL
            )
        agent.notify_task_arrival(Task(size=5.0, arrival_time=0.0, origin=0))
        system.sim.run(until=10.0)
        assert agent.escalations == agent.help.timeouts >= 1

    def test_gateway_failover_under_crash(self):
        system = hier_system(horizon=200.0)
        agent = system.agents[0]
        gi = agent.directory.group_of(0)
        gateway = agent.directory.gateway(gi, system.faults.can_communicate)
        system.faults.crash(gateway)
        new_gateway = agent.directory.gateway(gi, system.faults.can_communicate)
        assert new_gateway != gateway or new_gateway is None


class TestChurnWithHierarchy:
    def test_adopt_joins_neighbour_group(self):
        topo = paper_topology()
        d = GroupDirectory.from_topology(topo, 9)
        topo.add_link(25, 0)
        gi = d.adopt(25, topo)
        assert gi == d.group_of(0)
        assert 25 in d.members(0)

    def test_adopt_isolated_gets_singleton(self):
        topo = paper_topology()
        d = GroupDirectory.from_topology(topo, 9)
        topo.add_node(99)
        gi = d.adopt(99, topo)
        assert d.groups[gi] == [99]

    def test_adopt_idempotent(self):
        topo = paper_topology()
        d = GroupDirectory.from_topology(topo, 9)
        assert d.adopt(0, topo) == d.group_of(0)

    def test_churn_join_with_hierarchical_protocol(self):
        system = hier_system(horizon=200.0)
        system.sim.at(50.0, system.add_node, 100, [0])
        system.run()
        agent = system.agents[100]
        assert isinstance(agent, HierarchicalRealtorAgent)
        # the newcomer belongs to node 0's group and can find its gateway
        assert 100 in agent.directory.members(0)
        system.metrics.tasks.check_conservation()


class TestDirectoryLifetime:
    """The group layout belongs to one system: a later run never sees it."""

    @staticmethod
    def cell(side):
        return ExperimentConfig(
            protocol="realtor-hier", arrival_rate=0.3 * side * side,
            rows=side, cols=side, horizon=200.0, seed=1,
        )

    def test_no_directory_outlives_its_run(self):
        run_experiment(self.cell(3))
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, GroupDirectory)]

    def test_a_run_does_not_depend_on_earlier_runs(self):
        first = run_experiment(self.cell(5))
        run_experiment(self.cell(3))
        gc.collect()
        again = run_experiment(self.cell(5))
        assert result_to_canonical_json(again) == result_to_canonical_json(first)
