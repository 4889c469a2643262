"""Tests for sweeps and replications."""

import pytest

from repro.experiments.confidence import confidence_sweep
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import run_sweep


BASE = ExperimentConfig(horizon=150.0, arrival_rate=5.0)


class TestRunSweep:
    def test_grid_complete(self):
        out = run_sweep(["realtor", "push-1"], [2.0, 6.0], BASE)
        assert set(out) == {"realtor", "push-1"}
        for proto in out:
            assert set(out[proto]) == {2.0, 6.0}

    def test_results_tagged_with_inputs(self):
        out = run_sweep(["realtor"], [3.0], BASE)
        res = out["realtor"][3.0]
        assert res.params["protocol"] == "realtor"
        assert res.params["lambda"] == 3.0

    def test_common_random_numbers(self):
        out = run_sweep(["realtor", "pull-100"], [6.0], BASE)
        assert (
            out["realtor"][6.0].generated == out["pull-100"][6.0].generated
        )

    def test_parallel_matches_serial(self):
        serial = run_sweep(["realtor"], [2.0, 6.0], BASE)
        par = run_sweep(["realtor"], [2.0, 6.0], BASE, parallel=True, max_workers=2)
        for rate in (2.0, 6.0):
            assert (
                serial["realtor"][rate].messages_total
                == par["realtor"][rate].messages_total
            )


class TestReplications:
    """Replications of one configuration: ``confidence_sweep`` at one point."""

    def test_seeds_produce_independent_runs(self):
        runs = confidence_sweep(["realtor"], [7.0], BASE, seeds=[1, 2, 3])[
            "realtor"][7.0].runs
        assert len(runs) == 3
        assert len({r.generated for r in runs}) > 1

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            confidence_sweep(["realtor"], [5.0], BASE, seeds=[])

    def test_summary_over_replications(self):
        s = confidence_sweep(["realtor"], [7.0], BASE, seeds=range(4))[
            "realtor"][7.0].summary
        assert s.n == 4
        assert 0.5 < s.mean <= 1.0
