"""Unit tests for threshold-crossing detection."""

import pytest

from repro.node.monitor import ThresholdMonitor
from repro.node.queue import WorkQueue
from repro.node.task import Task, TaskOutcome
from repro.sim.kernel import Simulator


def build(threshold=0.9, capacity=100.0, hysteresis=0.0):
    sim = Simulator()
    q = WorkQueue(sim, capacity)
    m = ThresholdMonitor(sim, q, threshold, hysteresis)
    crossings = []
    m.on_cross(lambda d, u: crossings.append((sim.now, d)))
    return sim, q, m, crossings


def admit(sim, q, m, size):
    t = Task(size=size, arrival_time=sim.now, origin=0)
    t.mark_admitted(0, sim.now, TaskOutcome.LOCAL)
    q.try_admit(t)
    m.notify_change()
    return t


class TestValidation:
    def test_threshold_bounds(self):
        sim = Simulator()
        q = WorkQueue(sim, 10.0)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ThresholdMonitor(sim, q, bad)

    def test_hysteresis_bounds(self):
        sim = Simulator()
        q = WorkQueue(sim, 10.0)
        with pytest.raises(ValueError):
            ThresholdMonitor(sim, q, 0.9, hysteresis=0.2)


class TestUpwardCrossing:
    def test_admission_over_threshold_fires_up(self):
        sim, q, m, crossings = build()
        admit(sim, q, m, 95.0)
        assert crossings == [(0.0, "up")]
        assert not m.below

    def test_admission_below_threshold_silent(self):
        sim, q, m, crossings = build()
        admit(sim, q, m, 50.0)
        assert crossings == []
        assert m.below

    def test_no_duplicate_up_crossings(self):
        sim, q, m, crossings = build()
        admit(sim, q, m, 92.0)
        admit(sim, q, m, 3.0)
        assert [d for _, d in crossings] == ["up"]

    def test_crossing_counters(self):
        sim, q, m, _ = build()
        admit(sim, q, m, 95.0)
        sim.run(until=50.0)
        assert m.crossings_up == 1
        assert m.crossings_down == 1


class TestDownwardCrossing:
    def test_decay_crossing_fires_at_analytic_time(self):
        sim, q, m, crossings = build()
        admit(sim, q, m, 95.0)  # backlog 95, threshold level 90
        sim.run(until=20.0)
        # crossing at t=5 (95 - 90 = 5 seconds of drain)
        assert len(crossings) == 2
        t, d = crossings[1]
        assert d == "down"
        assert t == pytest.approx(5.0, abs=1e-6)
        assert m.below

    def test_rescheduled_by_new_admission(self):
        sim, q, m, crossings = build()
        admit(sim, q, m, 95.0)
        sim.run(until=3.0)
        admit(sim, q, m, 5.0)  # backlog 92 + 5 = 97 -> crossing at t=10
        sim.run(until=30.0)
        downs = [(t, d) for t, d in crossings if d == "down"]
        assert len(downs) == 1
        assert downs[0][0] == pytest.approx(3.0 + (97.0 - 90.0), abs=1e-6)

    def test_oscillation_counts_both_directions(self):
        sim, q, m, crossings = build()
        admit(sim, q, m, 91.0)
        sim.run(until=50.0)   # down at ~1.0, backlog 41 left
        admit(sim, q, m, 55.0)  # 41 + 55 = 96 -> up again
        sim.run(until=300.0)
        dirs = [d for _, d in crossings]
        assert dirs == ["up", "down", "up", "down"]

    def test_instant_availability_matches_monitor(self):
        sim, q, m, _ = build()
        admit(sim, q, m, 95.0)
        assert not m.available()
        sim.run(until=6.0)
        assert m.available()


class TestWithdrawalCrossing:
    def test_removal_can_cross_down_immediately(self):
        sim, q, m, crossings = build()
        t1 = admit(sim, q, m, 50.0)
        t2 = admit(sim, q, m, 45.0)
        assert not m.below
        q.remove(t2)
        m.notify_change()
        assert m.below
        assert [d for _, d in crossings] == ["up", "down"]


class TestHysteresis:
    def test_dead_band_suppresses_jitter(self):
        sim, q, m, crossings = build(threshold=0.5, hysteresis=0.05)
        admit(sim, q, m, 52.0)  # 0.52 < 0.55 -> no up crossing
        assert crossings == []
        admit(sim, q, m, 5.0)   # 0.57 >= 0.55 -> up
        assert [d for _, d in crossings] == ["up"]
        sim.run(until=100.0)
        # down fires at backlog = 45 (threshold - hysteresis)
        assert [d for _, d in crossings] == ["up", "down"]


class TestDetach:
    def test_detach_cancels_pending(self):
        sim, q, m, crossings = build()
        admit(sim, q, m, 95.0)
        m.detach()
        sim.run(until=50.0)
        assert [d for _, d in crossings] == ["up"]  # no down after detach
