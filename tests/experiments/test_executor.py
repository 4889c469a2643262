"""Tests for the shared plan executor: failures, resume, cache telemetry."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import (
    CellExecutionError,
    execute_plan,
)
from repro.experiments.plan import ExperimentPlan, PlanCell
from repro.experiments.store import RunStore
from repro.experiments.sweep import run_sweep
from repro.experiments.store import result_to_canonical_json

BASE = ExperimentConfig(horizon=120.0, arrival_rate=5.0)


def _canonical_sweep(results):
    return {
        proto: {rate: result_to_canonical_json(res) for rate, res in series.items()}
        for proto, series in results.items()
    }


def failing_sweep(protocols) -> ExperimentPlan:
    """``sweep_plan(protocols, [3.0], BASE)`` with ExperimentConfig's
    protocol check bypassed, so that an unknown name's cell reaches its
    worker and raises there."""
    cells = []
    for proto in protocols:
        cfg = BASE.with_(arrival_rate=3.0)
        object.__setattr__(cfg, "protocol", proto)
        cells.append(PlanCell(key=(proto, 3.0), config=cfg))
    return ExperimentPlan("failing-sweep", tuple(cells))


class TestFailurePropagation:
    """A raising worker must name its cell, not hang or silently drop."""

    def test_serial_failure_names_cell(self, tmp_path):
        plan = failing_sweep(["realtor", "no-such-protocol"])
        store = RunStore(tmp_path)
        with pytest.raises(CellExecutionError) as err:
            execute_plan(plan, store=store)
        message = str(err.value)
        assert "no-such-protocol" in message
        assert "3.0" in message
        assert "seed=1" in message
        # the healthy cell completed and landed in the store
        assert store.writes == 1
        good = store.digest(BASE.with_(protocol="realtor", arrival_rate=3.0))
        assert good in store

    def test_parallel_failure_names_cell_and_keeps_completed(self, tmp_path):
        plan = failing_sweep(["realtor", "no-such-protocol", "push-1"])
        store = RunStore(tmp_path)
        with pytest.raises(CellExecutionError) as err:
            execute_plan(plan, store=store, parallel=True, max_workers=2)
        assert "no-such-protocol" in str(err.value)
        assert "seed=1" in str(err.value)
        # both healthy cells executed and persisted despite the failure
        assert store.writes == 2
        for proto in ("realtor", "push-1"):
            digest = store.digest(BASE.with_(protocol=proto, arrival_rate=3.0))
            assert digest in store

    def test_multiple_failures_counted(self):
        plan = failing_sweep(["bogus-a", "bogus-b"])
        with pytest.raises(CellExecutionError) as err:
            execute_plan(plan)
        assert len(err.value.failures) == 2
        assert "+1 more failed cell" in str(err.value)

    def test_error_carries_original_exception_text(self):
        plan = failing_sweep(["no-such-protocol"])
        with pytest.raises(CellExecutionError) as err:
            execute_plan(plan)
        # the worker's exception class and message survive the pickle hop
        (_, message), = err.value.failures
        assert "no-such-protocol" in message


class TestResume:
    """Interrupted sweeps re-run only missing cells, results bit-identical."""

    PROTOCOLS = ["realtor", "push-1"]
    RATES = [2.0, 6.0]

    def _count_runs(self, monkeypatch):
        import repro.experiments.executor as ex

        real = ex.run_experiment
        ran = []

        def counting(cfg, *args, **kwargs):
            ran.append((cfg.protocol, cfg.arrival_rate, cfg.seed))
            return real(cfg, *args, **kwargs)

        monkeypatch.setattr(ex, "run_experiment", counting)
        return ran

    def test_only_missing_cells_execute(self, tmp_path, monkeypatch):
        reference = run_sweep(self.PROTOCOLS, self.RATES, BASE)

        # simulate a sweep killed after two of four cells: pre-populate
        # the store with the cells the dead process had completed
        store = RunStore(tmp_path)
        for proto, rate in [("realtor", 2.0), ("realtor", 6.0)]:
            cfg = BASE.with_(protocol=proto, arrival_rate=rate)
            store.put(store.digest(cfg), cfg, reference[proto][rate])

        ran = self._count_runs(monkeypatch)
        resumed = run_sweep(self.PROTOCOLS, self.RATES, BASE, store=store)

        assert ran == [("push-1", 2.0, 1), ("push-1", 6.0, 1)]
        assert store.hits == 2
        assert _canonical_sweep(resumed) == _canonical_sweep(reference)

    def test_second_pass_is_all_hits_and_runs_nothing(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        first = run_sweep(self.PROTOCOLS, self.RATES, BASE, store=store)

        ran = self._count_runs(monkeypatch)
        store2 = RunStore(tmp_path)
        second = run_sweep(self.PROTOCOLS, self.RATES, BASE, store=store2)

        assert ran == []
        assert store2.hits == len(self.PROTOCOLS) * len(self.RATES)
        assert store2.misses == 0
        assert _canonical_sweep(first) == _canonical_sweep(second)

    def test_force_reruns_despite_hits(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        run_sweep(["realtor"], [2.0], BASE, store=store)

        ran = self._count_runs(monkeypatch)
        forced = run_sweep(["realtor"], [2.0], BASE, store=store, force=True)
        assert ran == [("realtor", 2.0, 1)]
        assert store.writes == 2  # original + refreshed record
        assert forced["realtor"][2.0].generated > 0

    def test_changed_cell_invalidates_only_itself(self, tmp_path, monkeypatch):
        """Incremental re-execution: edit one knob, re-run one cell."""
        store = RunStore(tmp_path)
        run_sweep(self.PROTOCOLS, self.RATES, BASE, store=store)

        ran = self._count_runs(monkeypatch)
        wider = [2.0, 6.0, 9.0]  # one new rate per protocol
        run_sweep(self.PROTOCOLS, wider, BASE, store=store)
        assert ran == [("realtor", 9.0, 1), ("push-1", 9.0, 1)]

    def test_parallel_resume_matches_serial(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = BASE.with_(protocol="realtor", arrival_rate=2.0)
        seeded = run_sweep(["realtor"], [2.0], BASE)
        store.put(store.digest(cfg), cfg, seeded["realtor"][2.0])

        serial = run_sweep(self.PROTOCOLS, self.RATES, BASE, store=RunStore(tmp_path))
        parallel = run_sweep(
            self.PROTOCOLS, self.RATES, BASE,
            store=RunStore(tmp_path), parallel=True, max_workers=2,
        )
        assert _canonical_sweep(serial) == _canonical_sweep(parallel)


class TestCacheTelemetry:
    def test_progress_reporter_counts_cached_runs(self, tmp_path):
        import io

        from repro.obs.telemetry import ProgressReporter

        store = RunStore(tmp_path)
        run_sweep(["realtor"], [2.0, 6.0], BASE, store=store)

        out = io.StringIO()
        reporter = ProgressReporter(total=2, stream=out, clock=lambda: 0.0)
        run_sweep(["realtor"], [2.0, 6.0], BASE, store=store, progress=reporter)

        assert reporter.completed == 2
        assert reporter.cached == 2
        assert "cached=2" in out.getvalue()
        assert "(2 served from store)" in reporter.summary()

    def test_store_less_lines_unchanged(self):
        import io

        from repro.obs.telemetry import ProgressReporter

        out = io.StringIO()
        reporter = ProgressReporter(total=1, stream=out, clock=lambda: 0.0)
        run_sweep(["realtor"], [2.0], BASE, progress=reporter)
        assert reporter.cached == 0
        assert "cached" not in out.getvalue()
