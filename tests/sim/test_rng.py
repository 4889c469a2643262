"""Unit tests for random stream management."""

import pytest

from repro.sim.rng import RandomStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_name_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_range(self):
        s = derive_seed(123456789, "stream")
        assert 0 <= s < 2**63

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            derive_seed(-1, "a")


class TestRandomStreams:
    def test_same_name_same_generator_object(self):
        rs = RandomStreams(seed=0)
        assert rs.stream("a") is rs.stream("a")

    def test_streams_are_independent_of_creation_order(self):
        rs1 = RandomStreams(seed=5)
        rs1.stream("x")
        v1 = float(rs1.stream("y").random())
        rs2 = RandomStreams(seed=5)
        v2 = float(rs2.stream("y").random())  # created first this time
        assert v1 == v2

    def test_consuming_one_stream_does_not_shift_another(self):
        rs1 = RandomStreams(seed=5)
        rs1.stream("noise").random(1000)
        v1 = float(rs1.stream("signal").random())
        rs2 = RandomStreams(seed=5)
        v2 = float(rs2.stream("signal").random())
        assert v1 == v2
