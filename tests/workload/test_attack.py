"""Unit tests for attack injection."""

import numpy as np
import pytest

from repro.network.faults import FaultManager, NodeState
from repro.network.generators import mesh, paper_topology
from repro.sim.kernel import Simulator
from repro.workload.attack import AttackConfig, AttackPlan


def plan(kind="sweep", horizon=1000.0, nodes=25, seed=0, **fields):
    topo = paper_topology() if nodes == 25 else mesh(1, nodes)
    return AttackConfig(kind=kind, **fields).plan(topo, horizon, np.random.default_rng(seed))


class TestSweepAttack:
    def make(self, victims=3):
        return plan(start=100.0, dwell=50.0, victims=victims)

    def test_plan_structure(self):
        plan = self.make(victims=3)
        assert len(plan) == 6  # compromise + recover per victim
        times = [t for t, _, _ in plan.transitions]
        assert times[0] == 100.0

    def test_sequential_dwell(self):
        plan = self.make(victims=2)
        comps = [(t, n) for t, a, n in plan.transitions if a == "compromise"]
        assert comps[1][0] - comps[0][0] == 50.0

    def test_distinct_victims(self):
        plan = self.make(victims=10)
        assert len(plan.nodes_touched) == 10

    def test_installs_on_fault_manager(self):
        sim = Simulator()
        faults = FaultManager(sim, paper_topology())
        plan = self.make(victims=2)
        plan.install(faults)
        sim.run(until=120.0)
        compromised = [n for n in range(25) if faults.is_compromised(n)]
        assert len(compromised) == 1  # first victim active, not yet recovered
        sim.run(until=1000.0)
        assert all(faults.is_up(n) for n in range(25))

    def test_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="sweep", dwell=0.0)
        with pytest.raises(ValueError):
            AttackConfig(kind="sweep", victims=0)
        # more victims than nodes: every node, once
        assert len(plan(nodes=5, victims=9).nodes_touched) == 5


class TestRegionAttack:
    def test_victims_within_radius(self):
        attack = plan("region", epicentre=12, radius=1, start=10.0, duration=5.0)
        assert attack.nodes_touched == [7, 11, 12, 13, 17]

    def test_radius_zero_only_epicentre(self):
        attack = plan("region", epicentre=0, radius=0, start=0.0, duration=1.0)
        assert attack.nodes_touched == [0]

    def test_simultaneous_compromise_and_recovery(self):
        sim = Simulator()
        topo = paper_topology()
        faults = FaultManager(sim, topo)
        plan("region", epicentre=12, radius=1, start=10.0, duration=5.0).install(faults)
        sim.run(until=12.0)
        assert sum(not faults.is_up(n) for n in topo.nodes()) == 5
        sim.run(until=20.0)
        assert all(faults.is_up(n) for n in topo.nodes())

    def test_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="region", radius=-1)
        with pytest.raises(ValueError):
            AttackConfig(kind="region", duration=0.0)


class TestRandomFailures:
    def test_plan_is_sorted_and_bounded(self):
        attack = plan("random", nodes=10, mtbf=100.0, mttr=20.0)
        times = [t for t, _, _ in attack.transitions]
        assert times == sorted(times)
        assert all(t < 1000.0 for t in times)
        assert len(attack) > 0

    def test_crash_recover_alternate_per_node(self):
        attack = plan("random", horizon=10_000.0, nodes=1, seed=1, mtbf=100.0, mttr=10.0)
        actions = [a for _, a, n in attack.transitions if n == 0]
        for prev, cur in zip(actions, actions[1:]):
            assert prev != cur  # crash, recover, crash, ...

    def test_deterministic(self):
        mk = lambda: plan("random", horizon=500.0, nodes=5, seed=7, mtbf=50.0, mttr=10.0)
        assert mk().transitions == mk().transitions

    def test_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="random", mtbf=0.0)
        with pytest.raises(ValueError):
            AttackConfig(kind="random", mttr=-1.0)


class TestAttackPlan:
    def test_unknown_action_rejected(self):
        sim = Simulator()
        faults = FaultManager(sim, paper_topology())
        plan = AttackPlan(((1.0, "explode", 0),))
        with pytest.raises(ValueError):
            plan.install(faults)


class TestOverlappingPlans:
    def test_composed_plans_do_not_fight(self):
        # Two region-style windows over the same victim: [10, 30) and
        # [20, 50).  Without refcounted windows the first plan's recovery
        # at t=30 would revive the node mid-way through the second attack.
        sim = Simulator()
        faults = FaultManager(sim, paper_topology())
        a = AttackPlan(((10.0, "compromise", 7), (30.0, "recover", 7)))
        b = AttackPlan(((20.0, "crash", 7), (50.0, "recover", 7)))
        a.install(faults)
        b.install(faults)
        sim.run(until=35.0)
        assert not faults.is_up(7)  # still held by plan b
        sim.run(until=55.0)
        assert faults.is_up(7)

    def test_single_plan_unchanged(self):
        sim = Simulator()
        faults = FaultManager(sim, paper_topology())
        AttackPlan(((5.0, "compromise", 2), (9.0, "recover", 2))).install(faults)
        sim.run(until=7.0)
        assert faults.state(2) is NodeState.COMPROMISED
        sim.run(until=10.0)
        assert faults.is_up(2)
        # exactly one down + one up transition, like the pre-refcount path
        assert [e.state for e in faults.history if e.node == 2] == [
            NodeState.COMPROMISED,
            NodeState.UP,
        ]

    def test_crash_plans_compose_too(self):
        sim = Simulator()
        faults = FaultManager(sim, paper_topology())
        AttackPlan(((1.0, "crash", 0), (4.0, "recover", 0))).install(faults)
        AttackPlan(((2.0, "crash", 0), (6.0, "recover", 0))).install(faults)
        sim.run(until=5.0)
        assert faults.state(0) is NodeState.CRASHED
        sim.run(until=7.0)
        assert faults.is_up(0)


class TestPinnedPlans:
    """One plan per kind with the stock fields on the 5x5 mesh, drawn as a
    seed-1 run draws it: from the kernel's ``"attack"`` stream."""

    PLANS = {
        ("sweep", 1000.0): (
            (100.0, "compromise", 1), (150.0, "recover", 1),
            (150.0, "compromise", 14), (200.0, "recover", 14),
            (200.0, "compromise", 0), (250.0, "recover", 0),
            (250.0, "compromise", 5), (300.0, "recover", 5),
            (300.0, "compromise", 6), (350.0, "recover", 6),
        ),
        ("region", 1000.0): (
            (100.0, "compromise", 0), (200.0, "recover", 0),
            (100.0, "compromise", 1), (200.0, "recover", 1),
            (100.0, "compromise", 5), (200.0, "recover", 5),
        ),
        ("random", 100.0): (
            (8.212523677312639, "crash", 13),
            (13.364514535553539, "crash", 24),
            (16.3572899512791, "recover", 13),
            (18.156076007680795, "crash", 17),
            (57.6425899338499, "crash", 9),
            (59.22941095269554, "recover", 9),
            (60.16091934624867, "recover", 24),
            (64.2003830841333, "crash", 12),
            (70.14575856378164, "crash", 6),
            (77.63938149758116, "recover", 6),
            (88.33246441366171, "recover", 17),
            (88.69772331976328, "crash", 3),
            (93.84747214682663, "crash", 7),
        ),
    }

    @pytest.mark.parametrize("kind, horizon", list(PLANS))
    def test_plan_is_pinned(self, kind, horizon):
        rng = Simulator(seed=1).streams.stream("attack")
        attack = AttackConfig(kind=kind).plan(mesh(5, 5), horizon, rng)
        assert attack.transitions == self.PLANS[kind, horizon]
