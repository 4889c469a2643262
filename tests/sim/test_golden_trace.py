"""Golden-trace determinism regression tests.

The engine fast path (tuple-keyed heap entries, single-pass pop in the
kernel run loop, cached flood structures, chunked sweep dispatch) is only
legal because the deterministic event ordering that underpins the
common-random-numbers methodology is preserved.  These tests pin that
property: the same seed must yield a bit-identical traced event sequence
and bit-identical ``RunResult`` metrics, run after run, and a parallel
sweep must return exactly what the serial sweep returns.

They pass on the pre-fast-path kernel too — any divergence introduced by
a future optimization fails here before it can contaminate the figures.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.experiments.sweep import run_sweep
from repro.metrics.collector import RunResult


def _traced_run(seed: int = 7, horizon: float = 120.0):
    """One short REALTOR run with tracing on; returns (trace, result)."""
    cfg = ExperimentConfig(
        protocol="realtor",
        arrival_rate=6.0,
        horizon=horizon,
        seed=seed,
        trace=True,
    )
    system = build_system(cfg)
    system.run()
    trace = [
        (rec.time, rec.category, tuple(sorted(rec.payload.items())))
        for rec in system.sim.trace.records
    ]
    return trace, system.result(), system.sim.events_executed


def _result_fields(res: RunResult) -> dict:
    return dataclasses.asdict(res)


class TestGoldenTrace:
    def test_same_seed_bit_identical_trace(self):
        trace_a, result_a, executed_a = _traced_run(seed=7)
        trace_b, result_b, executed_b = _traced_run(seed=7)
        assert executed_a == executed_b
        assert len(trace_a) == len(trace_b)
        # element-wise so a failure points at the first diverging event
        for i, (rec_a, rec_b) in enumerate(zip(trace_a, trace_b)):
            assert rec_a == rec_b, f"trace diverges at record {i}"
        assert _result_fields(result_a) == _result_fields(result_b)

    def test_trace_is_nonempty_and_time_ordered(self):
        trace, result, executed = _traced_run(seed=7)
        assert executed > 0
        assert result.generated > 0
        assert len(trace) > 0
        times = [t for t, _, _ in trace]
        assert times == sorted(times)

    def test_different_seeds_diverge(self):
        trace_a, _, _ = _traced_run(seed=7)
        trace_b, _, _ = _traced_run(seed=8)
        assert trace_a != trace_b

    def test_metrics_reproducible_across_runs(self):
        _, result_a, _ = _traced_run(seed=11, horizon=90.0)
        _, result_b, _ = _traced_run(seed=11, horizon=90.0)
        assert result_a.messages_total == result_b.messages_total
        assert result_a.messages_by_kind == result_b.messages_by_kind
        assert result_a.response_time_mean == result_b.response_time_mean
        assert result_a.admission_probability == result_b.admission_probability


class TestFaultScenarioDeterminism:
    """The evacuation path (queue.remove + re-admission + crash drops)
    exercises every fast-path branch the plain runs miss; it must be just
    as reproducible."""

    @staticmethod
    def _attacked_run(seed: int = 5):
        from repro.workload.attack import AttackConfig

        cfg = ExperimentConfig(
            protocol="realtor",
            arrival_rate=8.0,
            horizon=150.0,
            seed=seed,
            trace=True,
            attack=AttackConfig(kind="sweep", start=20.0, dwell=10.0, victims=6),
        )
        system = build_system(cfg)
        system.run()
        trace = [
            (rec.time, rec.category, tuple(sorted(rec.payload.items())))
            for rec in system.sim.trace.records
        ]
        return trace, system.result()

    def test_sweep_attack_bit_identical(self):
        trace_a, result_a = self._attacked_run()
        trace_b, result_b = self._attacked_run()
        assert len(trace_a) == len(trace_b)
        for i, (rec_a, rec_b) in enumerate(zip(trace_a, trace_b)):
            assert rec_a == rec_b, f"trace diverges at record {i}"
        assert _result_fields(result_a) == _result_fields(result_b)


class TestSweepEquivalence:
    def test_serial_vs_parallel_identical(self):
        base = ExperimentConfig(horizon=80.0, seed=3)
        protocols = ["realtor", "pure-push"]
        rates = [4.0, 8.0]
        serial = run_sweep(protocols, rates, base, parallel=False)
        parallel = run_sweep(protocols, rates, base, parallel=True, max_workers=2)
        assert set(serial) == set(parallel)
        for proto in protocols:
            assert set(serial[proto]) == set(parallel[proto])
            for rate in rates:
                res_s = _result_fields(serial[proto][rate])
                res_p = _result_fields(parallel[proto][rate])
                assert res_s == res_p, f"{proto}@{rate} differs serial vs parallel"
