"""Tests for the replication/confidence machinery."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.confidence import (
    compare_protocols,
    confidence_sweep,
    confidence_table,
)

BASE = ExperimentConfig(horizon=120.0)


class TestConfidenceSweep:
    @pytest.fixture(scope="class")
    def estimates(self):
        return confidence_sweep(
            ["realtor", "pull-100"], [6.0], BASE, seeds=range(4)
        )

    def test_structure(self, estimates):
        assert set(estimates) == {"realtor", "pull-100"}
        est = estimates["realtor"][6.0]
        assert est.summary.n == 4
        assert len(est.runs) == 4
        assert est.pooled_trials == sum(r.generated for r in est.runs)

    def test_interval_contains_point_estimates(self, estimates):
        est = estimates["realtor"][6.0]
        p, low, high = est.wilson
        assert 0.0 <= low <= p <= high <= 1.0
        # the pooled proportion sits inside the per-seed spread
        assert est.summary.low - 0.1 <= p <= est.summary.high + 0.1

    def test_compare_protocols_z(self, estimates):
        z = compare_protocols(
            estimates["realtor"][6.0], estimates["pull-100"][6.0]
        )
        # the two protocols are within noise at this horizon; z is finite
        assert abs(z) < 20.0

    def test_table_renders(self, estimates):
        text = confidence_table(estimates)
        assert "realtor" in text and "pull-100" in text
        assert "±" in text

