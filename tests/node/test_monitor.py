"""Unit tests for threshold-crossing detection."""

import pytest

from repro.node.monitor import ThresholdMonitor
from repro.node.queue import WorkQueue
from repro.node.task import Task, TaskOutcome
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer


def build(threshold=0.9, capacity=100.0):
    sim = Simulator()
    q = WorkQueue(sim, capacity)
    m = ThresholdMonitor(sim, q, threshold)
    crossings = []
    m.on_cross(lambda d, u: crossings.append((sim.now, d)))
    return sim, q, m, crossings


def admit(sim, q, m, size):
    t = Task(size=size, arrival_time=sim.now, origin=0)
    t.mark_admitted(0, sim.now, TaskOutcome.LOCAL)
    q.try_admit(t)
    m.notify_change()
    return t


def crossing_records(sim):
    return [r.payload["direction"] for r in sim.trace.records
            if r.category == "threshold-cross"]


class TestValidation:
    def test_threshold_bounds(self):
        sim = Simulator()
        q = WorkQueue(sim, 10.0)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ThresholdMonitor(sim, q, bad)


class TestUpwardCrossing:
    def test_admission_over_threshold_fires_up(self):
        sim, q, m, crossings = build()
        admit(sim, q, m, 95.0)
        assert crossings == [(0.0, "up")]
        assert not m.available()

    def test_admission_below_threshold_silent(self):
        sim, q, m, crossings = build()
        admit(sim, q, m, 50.0)
        assert crossings == []
        assert m.available()

    def test_no_duplicate_up_crossings(self):
        sim, q, m, crossings = build()
        admit(sim, q, m, 92.0)
        admit(sim, q, m, 3.0)
        assert [d for _, d in crossings] == ["up"]

    def test_crossing_counters(self):
        sim, q, m, crossings = build()
        admit(sim, q, m, 95.0)
        sim.run(until=50.0)
        dirs = [d for _, d in crossings]
        assert (dirs.count("up"), dirs.count("down")) == (1, 1)


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
        assert m.available()

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
        assert (dirs.count("up"), dirs.count("down")) == (2, 2)

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
        assert [d for _, d in crossings] == ["up"]
        q.remove(t2)
        m.notify_change()
        assert [d for _, d in crossings] == ["up", "down"]
        assert m.available()


class TestNoListener:
    """A monitor nobody listens to does nothing: no decay event on the
    agenda and no crossing in the trace."""

    def build(self):
        sim = Simulator(trace=Tracer())
        q = WorkQueue(sim, 100.0)
        return sim, q, ThresholdMonitor(sim, q, 0.9)

    def test_over_threshold_admission_schedules_nothing(self):
        sim, q, m = self.build()
        admit(sim, q, m, 95.0)
        assert len(sim.queue) == 0
        sim.run(until=50.0)
        assert sim.events_executed == 0
        assert crossing_records(sim) == []

    def test_listener_on_idle_queue_restores_crossings(self):
        sim, q, m = self.build()
        admit(sim, q, m, 50.0)
        sim.run(until=60.0)  # drained: the queue is idle again
        crossings = []
        m.on_cross(lambda d, u: crossings.append((sim.now, d)))
        admit(sim, q, m, 95.0)
        assert len(sim.queue) == 1
        sim.run(until=100.0)
        assert [d for _, d in crossings] == ["up", "down"]
        assert crossings[0][0] == 60.0
        assert crossings[1][0] == pytest.approx(65.0, abs=1e-6)
        assert crossing_records(sim) == ["up", "down"]


class TestDetach:
    def test_detach_cancels_pending(self):
        sim, q, m, crossings = build()
        admit(sim, q, m, 95.0)
        m.detach()
        sim.run(until=50.0)
        assert [d for _, d in crossings] == ["up"]  # no down after detach
