"""Unit tests for the task-size sampler."""

import numpy as np
import pytest

from repro.workload.sizes import ExponentialSizes


class TestExponential:
    def test_mean_matches(self):
        s = ExponentialSizes(5.0, np.random.default_rng(0))
        xs = [s.sample() for _ in range(5000)]
        assert np.mean(xs) == pytest.approx(5.0, rel=0.05)
        assert s.mean == 5.0

    def test_cap_enforced(self):
        s = ExponentialSizes(5.0, np.random.default_rng(0), cap=10.0)
        assert all(0 < s.sample() <= 10.0 for _ in range(2000))

    def test_always_positive(self):
        s = ExponentialSizes(0.001, np.random.default_rng(0))
        assert all(s.sample() > 0 for _ in range(1000))

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialSizes(0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ExponentialSizes(1.0, np.random.default_rng(0), cap=0.0)
