"""Unit tests for the fault model."""

import pytest

from repro.network.faults import FaultManager, NodeState
from repro.network.generators import mesh, paper_topology
from repro.sim.kernel import Simulator
from tests.oracles import live_topology


def _window(sim, faults, start, end, node):
    """One refcounted down-window ``[start, end)`` on ``node``."""
    sim.at(start, faults.hold_down, node)
    sim.at(end, faults.release_down, node)


@pytest.fixture
def fm():
    sim = Simulator()
    return sim, FaultManager(sim, paper_topology())


class TestTransitions:
    def test_initial_state_up(self, fm):
        _, faults = fm
        assert faults.state(0) is NodeState.UP
        assert faults.is_up(0)
        assert len(faults.up_nodes()) == 25

    def test_crash_and_recover(self, fm):
        _, faults = fm
        faults.crash(3)
        assert faults.state(3) is NodeState.CRASHED
        assert not faults.is_up(3)
        faults.recover(3)
        assert faults.is_up(3)

    def test_compromise_marks_not_up(self, fm):
        _, faults = fm
        faults.compromise(4)
        assert faults.state(4) is NodeState.COMPROMISED
        assert not faults.is_up(4)

    def test_redundant_transition_is_noop(self, fm):
        _, faults = fm
        faults.crash(1)
        v = faults.version
        n = len(faults.history)
        faults.crash(1)
        assert faults.version == v and len(faults.history) == n

    def test_unknown_node_raises(self, fm):
        _, faults = fm
        with pytest.raises(KeyError):
            faults.crash(404)

    def test_history_records_transitions(self, fm):
        sim, faults = fm
        sim.at(5.0, faults.crash, 2)
        sim.at(9.0, faults.recover, 2)
        sim.run()
        assert [(e.time, e.state) for e in faults.history] == [
            (5.0, NodeState.CRASHED),
            (9.0, NodeState.UP),
        ]

    def test_observers_notified(self, fm):
        _, faults = fm
        seen = []
        faults.on_change(lambda n, s: seen.append((n, s)))
        faults.compromise(7)
        faults.recover(7)
        assert seen == [(7, NodeState.COMPROMISED), (7, NodeState.UP)]

    def test_scheduled_transitions(self, fm):
        sim, faults = fm
        sim.at(10.0, faults.crash, 1)
        sim.at(20.0, faults.recover, 1)
        sim.run(until=15.0)
        assert not faults.is_up(1)
        sim.run(until=25.0)
        assert faults.is_up(1)


class TestLinks:
    def test_fail_and_restore_link(self, fm):
        _, faults = fm
        assert faults.link_up(0, 1)
        faults.fail_link(0, 1)
        assert not faults.link_up(0, 1)
        assert not faults.link_up(1, 0)
        faults.restore_link(0, 1)
        assert faults.link_up(0, 1)

    def test_fail_unknown_link_raises(self, fm):
        _, faults = fm
        with pytest.raises(KeyError):
            faults.fail_link(0, 24)

    def test_live_topology_excludes_down(self):
        sim = Simulator()
        faults = FaultManager(sim, mesh(1, 4))
        faults.crash(1)
        faults.fail_link(2, 3)
        live = live_topology(faults)
        assert live.nodes() == [0, 2, 3]
        assert live.links() == []


class TestDowntime:
    def test_downtime_fraction_single_node(self):
        sim = Simulator()
        faults = FaultManager(sim, mesh(1, 2))
        sim.at(10.0, faults.crash, 0)
        sim.at(30.0, faults.recover, 0)
        sim.run(until=100.0)
        assert faults.downtime_fraction(100.0, node=0) == pytest.approx(0.2)

    def test_downtime_open_interval_counts_to_horizon(self):
        sim = Simulator()
        faults = FaultManager(sim, mesh(1, 2))
        sim.at(50.0, faults.crash, 1)
        sim.run(until=100.0)
        assert faults.downtime_fraction(100.0, node=1) == pytest.approx(0.5)

    def test_mean_downtime_over_all_nodes(self):
        sim = Simulator()
        faults = FaultManager(sim, mesh(1, 2))
        sim.at(0.0, faults.crash, 0)
        sim.run(until=10.0)
        assert faults.downtime_fraction(10.0) == pytest.approx(0.5)


class TestDownWindows:
    def test_hold_and_release(self, fm):
        _, faults = fm
        faults.hold_down(3)
        assert faults.state(3) is NodeState.COMPROMISED
        assert faults.holds(3) == 1
        faults.release_down(3)
        assert faults.is_up(3)
        assert faults.holds(3) == 0

    def test_overlapping_holds_keep_node_down(self, fm):
        _, faults = fm
        faults.hold_down(3)
        faults.hold_down(3, NodeState.CRASHED)
        assert faults.holds(3) == 2
        faults.release_down(3)  # first window ends...
        assert not faults.is_up(3)  # ...but the second still holds
        faults.release_down(3)
        assert faults.is_up(3)

    def test_hold_rejects_up_state(self, fm):
        _, faults = fm
        with pytest.raises(ValueError):
            faults.hold_down(0, NodeState.UP)

    def test_manual_recover_clears_holds(self, fm):
        _, faults = fm
        faults.hold_down(3)
        faults.hold_down(3)
        faults.recover(3)  # operator override wins
        assert faults.is_up(3)
        assert faults.holds(3) == 0

    def test_schedule_window(self, fm):
        sim, faults = fm
        _window(sim, faults, 1.0, 3.0, 4)
        sim.run(until=2.0)
        assert faults.state(4) is NodeState.COMPROMISED
        sim.run(until=5.0)
        assert faults.is_up(4)

    def test_overlapping_scheduled_windows(self, fm):
        # [1, 4) and [2, 6): node must stay down through t=4
        sim, faults = fm
        _window(sim, faults, 1.0, 4.0, 4)
        _window(sim, faults, 2.0, 6.0, 4)
        sim.run(until=5.0)
        assert not faults.is_up(4)
        sim.run(until=7.0)
        assert faults.is_up(4)
