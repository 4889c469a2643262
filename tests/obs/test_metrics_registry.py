"""Unit and integration tests for the run-wide metrics registry."""

import dataclasses
import json

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, run_experiment
from repro.obs.config import SAMPLES_TARGET, ObsConfig
from repro.obs.registry import (
    AGENT_STRIDE,
    REGISTRY_FORMAT,
    Histogram,
    MetricsRegistry,
)
from repro.sim.kernel import Simulator


BASE = dict(
    protocol="realtor",
    nodes=25,
    topology="mesh",
    arrival_rate=4.0,
    horizon=60.0,
    seed=7,
)


class TestPrimitives:
    def test_histogram_uniform_fast_path_matches_generic(self):
        uniform = Histogram("u", np.linspace(0.0, 1.0, 11))
        generic = Histogram("g", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
        # values off the bin edges: exactly-on-edge samples may land on
        # either side of a boundary under the fast path's float multiply,
        # which a metrics histogram does not need to pin down
        values = np.array([0.02, 0.05, 0.33, 0.31, 0.99, 0.61])
        uniform.accumulate(values)
        generic.accumulate(values)
        assert uniform.total() == len(values)
        assert generic.total() == len(values)
        expected = np.histogram(values, bins=np.linspace(0.0, 1.0, 11))[0]
        assert uniform.counts.tolist() == expected.tolist()
        # edge values still count exactly once each (no loss, no double)
        edgy = Histogram("e", np.linspace(0.0, 1.0, 11))
        edgy.accumulate(np.array([0.0, 0.3, 1.0]))
        assert edgy.total() == 3

    def test_histogram_clamps_out_of_range_into_end_bins(self):
        h = Histogram("x", np.linspace(0.0, 1.0, 5))
        h.accumulate(np.array([-3.0, 0.5, 7.0]))
        assert h.total() == 3
        assert h.counts[0] == 1   # -3 clamps low
        assert h.counts[-1] == 1  # 7 clamps high

    def test_histogram_observe_scalar_matches_accumulate(self):
        via_observe = Histogram("o", np.linspace(0.0, 1.0, 11))
        via_batch = Histogram("b", np.linspace(0.0, 1.0, 11))
        values = [0.02, 0.33, 0.99, -1.0, 2.0, 0.61]
        for v in values:
            via_observe.observe(v)
        via_batch.accumulate(np.array(values))
        assert via_observe.counts.tolist() == via_batch.counts.tolist()
        # generic (non-uniform) path too
        gen = Histogram("g", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
        for v in values:
            gen.observe(v)
        assert gen.total() == len(values)

    def test_histogram_observe_bisects_non_uniform_edges_like_accumulate(self):
        # the scalar path bisects a Python list of the edges; the column
        # path is numpy.histogram: same bins on, between and outside them
        edges = [0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 1000.0]
        between = [(lo + hi) / 2 for lo, hi in zip(edges, edges[1:])]
        nudged = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
        values = edges + between + nudged + [-7.0, -0.0, 1e-300, 1e9, np.inf, -np.inf]
        via_observe, via_batch = Histogram("o", edges), Histogram("b", edges)
        assert not via_observe._uniform
        for v in values:
            via_observe.observe(v)
        via_batch.accumulate(np.array(values))
        assert via_observe.counts.tolist() == via_batch.counts.tolist()
        assert via_observe.total() == len(values)
        # the end bins take what falls outside, and the last one is closed
        ends = Histogram("e", edges)
        for v in (-7.0, -np.inf, 1000.0, 1e9, np.inf):
            ends.observe(v)
        assert (ends.counts[0], ends.counts[-1], ends.total()) == (2, 3, 5)

    def test_histogram_percentile(self):
        h = Histogram("p", np.linspace(0.0, 100.0, 101))  # 1-wide bins
        for v in range(100):
            h.observe(v + 0.5)  # one sample per bin
        assert h.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert h.percentile(99) == pytest.approx(99.0, abs=1.0)
        assert h.percentile(0) <= h.percentile(100)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_histogram_percentile_empty_is_nan(self):
        h = Histogram("e", np.linspace(0.0, 1.0, 5))
        assert np.isnan(h.percentile(50))


class TestRegistry:
    def test_record_creates_series_lazily(self):
        reg = MetricsRegistry(Simulator(), interval=1.0)
        reg.record(0.0, "x", 1.0)
        reg.record(1.0, "x", 2.0)
        assert reg.series["x"].values.tolist() == [1.0, 2.0]
        assert reg.latest["x"] == 2.0

    def test_sampling_cadence_and_finish(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=10.0)
        reg.add_sampler(lambda now: reg.record(now, "clock", now))
        reg.start()
        sim.run(until=35.0)
        reg.finish()
        # t=0 baseline, ticks at 10/20/30, closing sample at 35
        assert reg.series["clock"].times.tolist() == [
            0.0, 10.0, 20.0, 30.0, 35.0,
        ]

    def test_finish_idempotent_and_skips_duplicate_final(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=10.0)
        reg.add_sampler(lambda now: reg.record(now, "clock", now))
        reg.start()
        sim.run(until=30.0)  # last tick lands exactly at the clock
        reg.finish()
        reg.finish()
        assert reg.series["clock"].times.tolist() == [0.0, 10.0, 20.0, 30.0]

    def test_deep_sampler_stride_and_closing_sample(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=1.0)
        reg.add_deep_sampler(
            lambda now: reg.record(now, "deep", now), stride=4
        )
        reg.start()
        sim.run(until=10.0)  # ticks 1..11 at t=0..10
        reg.finish()
        # stride 4 -> ticks 1, 5, 9 (t=0, 4, 8) + the closing sample at 10
        assert reg.series["deep"].times.tolist() == [0.0, 4.0, 8.0, 10.0]

    def test_deep_sampler_not_rerun_when_last_tick_was_deep(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=1.0)
        reg.add_deep_sampler(lambda now: reg.record(now, "deep", now), stride=1)
        reg.start()
        sim.run(until=3.0)
        reg.finish()
        # every tick is deep; finish must not append a duplicate point
        assert reg.series["deep"].times.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_start_twice_raises(self):
        reg = MetricsRegistry(Simulator(), interval=1.0)
        reg.start()
        with pytest.raises(RuntimeError):
            reg.start()

    def test_one_shared_heap_entry_for_sampling(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=5.0)
        for i in range(3):
            reg.add_sampler(
                lambda now, i=i: reg.record(now, f"m{i}", 1.0)
            )
        reg.start()
        before = sim.events_executed
        sim.run(until=20.0)
        # one shared-round firing per tick, independent of sampler count
        assert sim.events_executed - before == 4

    def test_to_payload_round_trips_json(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=1.0)
        reg.add_sampler(lambda now: reg.record(now, "x", now * 2))
        reg.histogram("h", np.linspace(0.0, 1.0, 3)).accumulate(
            np.array([0.1, 0.9])
        )
        reg.start()
        sim.run(until=2.0)
        reg.finish()
        payload = json.loads(json.dumps(reg.to_payload()))
        assert payload["format"] == REGISTRY_FORMAT
        assert payload["series"]["x"]["t"] == [0.0, 1.0, 2.0]
        assert payload["series"]["x"]["v"] == [0.0, 2.0, 4.0]
        assert payload["histograms"]["h"]["counts"] == [1, 1]


class TestRunIntegration:
    def test_obs_on_off_results_identical(self):
        r_off = run_experiment(ExperimentConfig(**BASE))
        r_on = run_experiment(ExperimentConfig(**BASE, obs=ObsConfig()))
        d_off = dataclasses.asdict(r_off)
        d_on = dataclasses.asdict(r_on)
        assert d_off.pop("series") is None
        assert d_on.pop("series") is not None
        d_off["params"].pop("obs", None)
        d_on["params"].pop("obs", None)
        assert d_off == d_on

    def test_series_payload_shape(self):
        result = run_experiment(ExperimentConfig(**BASE, obs=ObsConfig()))
        payload = result.series
        assert payload["format"] == REGISTRY_FORMAT
        ticks = SAMPLES_TARGET + 1
        assert payload["ticks"] == ticks  # t=0 baseline + the cadence ticks
        series = payload["series"]
        for name in (
            "nodes_live",
            "nodes_busy",
            "nodes_available",
            "queue_backlog_total",
            "queue_usage_mean",
            "tasks_generated",
            "tasks_admitted",
            "tasks_completed",
            "messages_sent",
            "messages_delivered",
        ):
            assert len(series[name]["t"]) == ticks, name
            assert series[name]["t"][-1] == BASE["horizon"], name
        # deep series are strided but still close at the horizon
        for name in ("queue_usage_p50", "queue_usage_p90", "queue_usage_max"):
            assert series[name]["t"][-1] == BASE["horizon"], name
            assert len(series[name]["t"]) < ticks, name
        # trajectories are consistent with the terminal counters
        assert series["tasks_generated"]["v"][-1] == result.generated
        assert series["tasks_completed"]["v"][-1] == result.completed
        assert series["nodes_live"]["v"][0] == BASE["nodes"]
        json.dumps(payload)  # JSON-clean end to end

    def test_usage_histogram_accumulates_on_deep_ticks(self):
        cfg = ExperimentConfig(**BASE, obs=ObsConfig())
        system = build_system(cfg)
        system.run()
        result = system.result()
        hist = result.series["histograms"]["queue_usage"]
        # deep ticks: 1 and 33 (stride 32 over 49 ticks), then the closing
        # sample, since the final tick (49) misses the stride phase
        assert (SAMPLES_TARGET, AGENT_STRIDE) == (48, 32)
        deep_ticks = 3
        assert sum(hist["counts"]) == BASE["nodes"] * deep_ticks

    def test_record_series_off_keeps_flight_recorder(self):
        cfg = ExperimentConfig(**BASE, obs=ObsConfig(record_series=False))
        system = build_system(cfg)
        assert system.registry is not None
        assert system.recorder is not None
        system.run()
        result = system.result()
        assert result.series is None
        assert system.recorder.snapshots_seen > 0

    def test_trace_bytes_identical_obs_on_vs_off(self, tmp_path):
        from repro.obs.sinks import record_to_json

        def trace_lines(obs):
            cfg = ExperimentConfig(
                **{**BASE, "horizon": 20.0}, trace=True, obs=obs
            )
            system = build_system(cfg)
            system.run()
            system.result()
            return [record_to_json(r) for r in system.sim.trace.records]

        assert trace_lines(None) == trace_lines(ObsConfig())
