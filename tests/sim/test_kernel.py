"""Unit tests for the simulation kernel: the virtual clock and its run loop.

What the kernel shares with the live scheduler (order, tracked cancel,
compaction, finalizers on a raising callback, ``stop``) is asserted over
both in ``tests/runtime/test_agenda_contract.py``.
"""

import pytest

from repro.sim.kernel import SimulationError, Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.at(3.0, lambda: times.append(sim.now))
        sim.at(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5, 3.0]

    def test_run_until_leaves_clock_at_horizon(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_events_beyond_until_not_executed(self):
        sim = Simulator()
        fired = []
        sim.at(5.0, fired.append, "early")
        sim.at(15.0, fired.append, "late")
        sim.run(until=10.0)
        assert fired == ["early"]
        sim.run(until=20.0)
        assert fired == ["early", "late"]

    def test_a_budget_ending_the_run_leaves_the_clock_at_the_last_event(self):
        """The clock jumps to ``until`` only when nothing is left due by
        then: events a budget left behind fire in time order next run."""
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.at(t, lambda: fired.append(sim.now))
        assert sim.run(until=10.0, max_events=1) == 1.0
        assert sim.run(until=10.0) == 10.0
        assert fired == [1.0, 2.0, 3.0]

    def test_stop_leaves_the_clock_at_the_stopping_event(self):
        sim = Simulator()
        sim.at(1.0, sim.stop)
        sim.at(2.0, lambda: None)
        assert sim.run(until=10.0) == 1.0
        assert sim.run(until=10.0) == 10.0

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.at(5.0, lambda: sim.at(1.0, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)

    def test_until_in_past_rejected(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)


class TestScheduling:
    def test_after_is_relative(self):
        sim = Simulator()
        seen = []
        sim.at(10.0, lambda: sim.after(2.5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [12.5]

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        count = [0]

        def chain():
            count[0] += 1
            if count[0] < 5:
                sim.after(1.0, chain)

        sim.after(1.0, chain)
        sim.run()
        assert count[0] == 5
        assert sim.now == 5.0

    def test_max_events_budget(self):
        sim = Simulator()
        for i in range(10):
            sim.at(float(i + 1), lambda: None)
        sim.run(max_events=3)
        assert sim.events_executed == 3

    def test_run_not_reentrant(self):
        sim = Simulator()
        captured = []

        def inner():
            try:
                sim.run()
            except SimulationError as e:
                captured.append(str(e))

        sim.at(1.0, inner)
        sim.run()
        assert captured and "reentrant" in captured[0]

    def test_finalizers_run_once(self):
        sim = Simulator()
        calls = []
        sim.add_finalizer(lambda: calls.append("f"))
        sim.at(1.0, lambda: None)
        sim.run()
        assert calls == ["f"]
        sim.run(until=2.0)
        assert calls == ["f"]  # finalizers cleared after first run


class TestPeriodicTimer:
    def test_fires_at_interval(self):
        sim = Simulator()
        ticks = []
        sim.periodic(2.0, lambda: ticks.append(sim.now))
        sim.run(until=7.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_phase_offsets_first_firing(self):
        sim = Simulator()
        ticks = []
        sim.periodic(2.0, lambda: ticks.append(sim.now), phase=0.5)
        sim.run(until=5.0)
        assert ticks == [2.5, 4.5]

    def test_stop_prevents_further_firings(self):
        sim = Simulator()
        ticks = []
        timer = sim.periodic(1.0, lambda: ticks.append(sim.now))
        sim.at(2.5, timer.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert timer.stopped

    def test_interval_change_takes_effect(self):
        sim = Simulator()
        ticks = []
        timer = sim.periodic(1.0, lambda: ticks.append(sim.now))

        def widen():
            timer.interval = 3.0

        sim.at(2.5, widen)
        sim.run(until=9.5)
        # ticks at 1, 2, 3 with the old interval; widened to 3s thereafter
        assert ticks == [1.0, 2.0, 3.0, 6.0, 9.0]

    def test_rejects_nonpositive_interval(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.periodic(0.0, lambda: None)


class TestDeterminism:
    def test_same_seed_same_stream_values(self):
        a = Simulator(seed=9).streams.stream("x").random(5).tolist()
        b = Simulator(seed=9).streams.stream("x").random(5).tolist()
        assert a == b

    def test_different_seeds_differ(self):
        a = Simulator(seed=9).streams.stream("x").random(5).tolist()
        b = Simulator(seed=10).streams.stream("x").random(5).tolist()
        assert a != b
