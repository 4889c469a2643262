"""Unit tests for statistics helpers."""

import numpy as np
import pytest

from repro.analysis.stats import (
    batch_means_ci,
    proportion_ci,
    summarize,
    two_proportion_z,
)


class TestSummarize:
    def test_mean_and_half_width(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.mean == 2.5
        assert s.n == 4
        assert s.low < 2.5 < s.high
        assert s.contains(2.5)

    def test_single_value_infinite_hw(self):
        s = summarize([5.0])
        assert s.mean == 5.0
        assert s.half_width == float("inf")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_unknown_confidence_rejected(self):
        with pytest.raises(ValueError):
            summarize([1.0, 2.0], confidence=0.5)

    def test_coverage_simulation(self):
        # the 95% CI should contain the true mean ~95% of the time
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(300):
            sample = rng.normal(10.0, 2.0, size=30)
            if summarize(sample).contains(10.0):
                hits += 1
        assert hits / 300 > 0.9

    def test_str(self):
        assert "n=3" in str(summarize([1.0, 2.0, 3.0]))


class TestBatchMeans:
    def test_warmup_discarded(self):
        # first 10% is a transient spike; batch means should ignore it
        samples = [100.0] * 100 + [1.0] * 900
        s = batch_means_ci(samples, batches=10, warmup_fraction=0.1)
        assert s.mean == pytest.approx(1.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            batch_means_ci([1.0] * 10, batches=10)

    def test_iid_ci_reasonable(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(5.0, 1.0, size=1000)
        s = batch_means_ci(samples, batches=10)
        assert s.contains(5.0)


class TestProportionCI:
    def test_wilson_basic(self):
        p, low, high = proportion_ci(80, 100)
        assert p == 0.8
        assert 0.7 < low < 0.8 < high < 0.9

    def test_boundary_zero(self):
        p, low, high = proportion_ci(0, 50)
        assert p == 0.0 and low == 0.0 and high > 0.0

    def test_boundary_all(self):
        p, low, high = proportion_ci(50, 50)
        assert p == 1.0 and high == 1.0 and low < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            proportion_ci(1, 0)
        with pytest.raises(ValueError):
            proportion_ci(5, 3)


class TestTwoProportionZ:
    def test_sign_convention(self):
        assert two_proportion_z(90, 100, 50, 100) > 0
        assert two_proportion_z(50, 100, 90, 100) < 0

    def test_equal_proportions_zero(self):
        assert two_proportion_z(50, 100, 50, 100) == pytest.approx(0.0)

    def test_degenerate_pool(self):
        assert two_proportion_z(0, 10, 0, 10) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            two_proportion_z(1, 0, 1, 1)
