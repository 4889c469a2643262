"""Edge-scenario integration tests: behaviours at the seams between
features (gossip under churn, hierarchy under attack,
multicast to dead receivers)."""

import pytest

from repro.experiments.config import ExperimentConfig, paper_config
from repro.experiments.runner import build_system


class TestGossipUnderChurn:
    def test_newcomer_learned_through_gossip(self):
        cfg = ExperimentConfig(
            protocol="gossip", arrival_rate=4.0, horizon=300.0, seed=6
        )
        system = build_system(cfg)
        system.sim.at(50.0, system.add_node, 25, [12])
        system.run()
        # epidemic spread: the newcomer is eventually known far from its
        # attachment point
        knowers = [
            nid
            for nid, agent in system.agents.items()
            if nid != 25 and 25 in agent.view
        ]
        assert len(knowers) >= 20

    def test_gossip_survives_crash_churn(self):
        cfg = ExperimentConfig(
            protocol="gossip", arrival_rate=5.0, horizon=300.0, seed=7
        )
        system = build_system(cfg)
        for t, node in ((50.0, 3), (100.0, 7), (150.0, 11)):
            system.sim.at(t, system.faults.crash, node)
            system.sim.at(t + 40.0, system.faults.recover, node)
        system.run()
        res = system.result()
        assert res.admission_probability > 0.9
        system.metrics.tasks.check_conservation()


class TestHierarchyUnderAttack:
    def test_gateway_compromise_does_not_break_escalation(self):
        cfg = ExperimentConfig(
            protocol="realtor-hier", arrival_rate=10.0, rows=6, cols=6,
            horizon=400.0, seed=8, unicast_cost="hops",
        )
        system = build_system(cfg)
        # compromise the very first gateway early on
        agent0 = system.agents[0]
        gi = agent0.directory.group_of(0)
        gateway = agent0.directory.gateway(gi)
        system.sim.at(50.0, system.faults.compromise, gateway)
        system.run()
        res = system.result()
        # the system keeps running and keeps admitting
        assert res.admission_probability > 0.85
        system.metrics.tasks.check_conservation()

    def test_all_gateways_down_disables_escalation_gracefully(self):
        cfg = ExperimentConfig(
            protocol="realtor-hier", arrival_rate=8.0, rows=4, cols=4,
            horizon=200.0, seed=9, unicast_cost="hops",
        )
        system = build_system(cfg)
        directory = system.agents[0].directory
        for gi in range(len(directory)):
            for node in directory.groups[gi]:
                system.sim.at(50.0, system.faults.compromise, node)
        system.run()  # must not raise: gateway lookup returns None
        system.metrics.tasks.check_conservation()


class TestTransportEdges:
    def test_multicast_skips_dead_receivers(self):
        from repro.network.faults import FaultManager
        from repro.network.generators import mesh
        from repro.network.transport import Transport
        from repro.sim.kernel import Simulator

        sim = Simulator()
        topo = mesh(2, 2)
        faults = FaultManager(sim, topo)
        costs = []
        tr = Transport(sim, topo, is_up=faults.is_up,
                       liveness_version=lambda: faults.version,
                       on_cost=lambda k, c: costs.append(c))
        seen = []
        for n in topo.nodes():
            tr.register(n, "m", lambda d, n=n: seen.append(n))
        faults.crash(2)
        receivers = tr.multicast(0, [1, 2, 3], "m", None)
        sim.run()
        assert receivers == [1, 3]
        assert sorted(seen) == [1, 3]

    def test_flood_after_total_recovery_reaches_everyone(self):
        cfg = paper_config("realtor", 2.0, horizon=100.0)
        system = build_system(cfg)
        for n in range(25):
            system.faults.crash(n)
        for n in range(25):
            system.faults.recover(n)
        out = system.transport.flood(0, "ADV", None)
        assert len(out) == 24  # cache fully invalidated and rebuilt


class TestRejectionPressureRelief:
    def test_system_drains_after_overload_burst(self):
        """Overload for half the run, then silence: every admitted task
        finishes and queues return to empty."""
        cfg = paper_config("realtor", 12.0, horizon=300.0)
        system = build_system(cfg)
        system.sim.at(150.0, system.generator.stop)
        system.run()
        system.sim.run(until=800.0)
        system.settle()
        assert all(h.queue.backlog() == 0.0 for h in system.hosts.values())
        m = system.metrics.tasks
        assert m.completed == m.admitted
