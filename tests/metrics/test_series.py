"""Unit tests for the registry's time series and samplers."""

import pytest

from repro.obs.registry import MetricsRegistry, TimeSeries
from repro.sim.kernel import Simulator


class TestTimeSeries:
    def test_append_and_views(self):
        ts = TimeSeries("x", initial_capacity=2)
        for i in range(5):  # forces buffer growth
            ts.append(float(i), float(i * 10))
        assert len(ts) == 5
        assert ts.times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert ts.values.tolist() == [0.0, 10.0, 20.0, 30.0, 40.0]

    def test_growth_preserves_data_across_many_doublings(self):
        # regression: np.resize fills the grown tail by *repeating* the
        # data; the explicit grow-and-copy must keep every sample intact
        ts = TimeSeries("x", initial_capacity=1)
        n = 1000  # 1 -> 1024 is ten doublings
        for i in range(n):
            ts.append(float(i), float(i) * 0.5)
        assert len(ts) == n
        assert ts.times.tolist() == [float(i) for i in range(n)]
        assert ts.values.tolist() == [float(i) * 0.5 for i in range(n)]

    def test_views_share_memory_with_buffer(self):
        ts = TimeSeries()
        ts.append(0.0, 1.0)
        ts.append(1.0, 2.0)
        v = ts.values
        assert v.base is ts._v  # a view, not a copy
        assert ts.times.base is ts._t


def sampled(sim, interval, name, probe):
    """A started registry recording ``probe()`` as ``name`` every tick."""
    reg = MetricsRegistry(sim, interval=interval)
    reg.add_sampler(lambda now: reg.record(now, name, float(probe())))
    reg.start()
    return reg


class TestSampler:
    """``MetricsRegistry.add_sampler``: periodic probes on one shared round."""

    def test_periodic_sampling(self):
        sim = Simulator()
        counter = {"v": 0.0}
        reg = sampled(sim, 10.0, "v", lambda: counter["v"])
        sim.at(15.0, lambda: counter.__setitem__("v", 7.0))
        sim.run(until=35.0)
        series = reg.series["v"]
        # samples at t=0 (start), 10, 20, 30
        assert series.times.tolist() == [0.0, 10.0, 20.0, 30.0]
        assert series.values.tolist() == [0.0, 0.0, 7.0, 7.0]

    def test_stop_halts_sampling(self):
        sim = Simulator()
        reg = sampled(sim, 1.0, "x", lambda: 1.0)
        sim.at(2.5, reg.finish)
        sim.run(until=10.0)
        # t=0, 1, 2 and the closing sample at 2.5
        assert reg.series["x"].times.tolist() == [0.0, 1.0, 2.0, 2.5]

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            MetricsRegistry(Simulator(), interval=0.0)

    def test_each_registry_is_one_heap_entry(self):
        # the registry ticks on one periodic timer: one agenda entry per
        # registry, however many series it keeps
        sim = Simulator()
        regs = [sampled(sim, 5.0, f"x{i}", lambda: 1.0) for i in range(4)]
        assert len(sim.queue) == 4
        before = sim.events_executed
        sim.run(until=20.0)
        # ticks at 5, 10, 15, 20 -> 4 firings per registry
        assert sim.events_executed - before == 16
        for i, reg in enumerate(regs):
            assert len(reg.series[f"x{i}"]) == 5  # start + 4 ticks

    def test_stop_uses_tracked_cancellation(self):
        sim = Simulator()
        reg = sampled(sim, 1.0, "x", lambda: 1.0)
        reg.finish()
        assert reg._timer.stopped
        before = len(reg.series["x"])
        sim.run(until=10.0)
        assert len(reg.series["x"]) == before  # no further samples
