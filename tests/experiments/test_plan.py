"""Tests for declarative experiment plans."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.plan import (
    confidence_plan,
    grid_plan,
    replication_plan,
    sweep_plan,
)
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import run_sweep
from repro.experiments.store import canonical_rate, result_to_canonical_json

BASE = ExperimentConfig(horizon=120.0, arrival_rate=5.0)


class TestSweepPlan:
    def test_expansion_order_is_protocol_major(self):
        plan = sweep_plan(["realtor", "push-1"], [2.0, 6.0], BASE)
        assert plan.keys() == [
            ("realtor", 2.0), ("realtor", 6.0),
            ("push-1", 2.0), ("push-1", 6.0),
        ]
        for cell in plan:
            proto, rate = cell.key
            assert cell.config.protocol == proto
            assert cell.config.arrival_rate == rate
            assert cell.config.attack is None

    def test_rates_canonicalised_at_expansion(self):
        noisy = 3.0000000000000004
        plan = sweep_plan(["realtor"], [noisy], BASE)
        assert plan.cells[0].key == ("realtor", 3.0)
        assert plan.cells[0].config.arrival_rate == 3.0

    def test_reduce_shapes_sweep_results(self):
        plan = sweep_plan(["realtor", "push-1"], [2.0], BASE)
        fake = [object(), object()]
        out = plan.reduce(fake)
        assert out == {"realtor": {2.0: fake[0]}, "push-1": {2.0: fake[1]}}

    def test_reduce_rejects_wrong_cardinality(self):
        plan = sweep_plan(["realtor"], [2.0, 6.0], BASE)
        with pytest.raises(ValueError):
            plan.reduce([object()])

    def test_matches_handrolled_fanout(self):
        """The refactor pin: plan-executed sweeps equal the inline loops."""
        out = run_sweep(["realtor", "push-1"], [2.0, 6.0], BASE)
        for proto in ("realtor", "push-1"):
            for rate in (2.0, 6.0):
                direct = run_experiment(
                    BASE.with_(protocol=proto, arrival_rate=rate)
                )
                assert result_to_canonical_json(direct) == result_to_canonical_json(
                    out[proto][rate]
                )


class TestReplicationPlan:
    def test_one_cell_per_seed(self):
        plan = replication_plan(BASE, seeds=[3, 1, 2])
        assert plan.keys() == [(3,), (1,), (2,)]
        assert [c.config.seed for c in plan] == [3, 1, 2]

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replication_plan(BASE, seeds=[])


class TestGridPlan:
    def test_two_and_three_tuple_items(self):
        """A cell is ``(key, config)``; the attack rides on the config,
        and a third item (the old attack rider) is refused."""
        from repro.workload.attack import AttackConfig

        attacked = BASE.with_(seed=2, attack=AttackConfig(victims=2))
        plan = grid_plan("g", [("a", BASE), (("b", 1), attacked)])
        assert plan.cells[0].key == ("a",)
        assert plan.cells[0].config.attack is None
        assert plan.cells[1].key == ("b", 1)
        assert plan.cells[1].config is attacked
        with pytest.raises(ValueError):
            grid_plan("g", [("a", BASE, AttackConfig(victims=2))])

    def test_reduce_unwraps_scalar_keys(self):
        plan = grid_plan("g", [("a", BASE), (("b", 1), BASE)])
        out = plan.reduce([1, 2])
        assert out == {"a": 1, ("b", 1): 2}


class TestConfidencePlan:
    def test_full_grid(self):
        plan = confidence_plan(["realtor", "push-1"], [2.0, 6.0], BASE, [1, 2])
        assert len(plan) == 8
        assert plan.cells[0].key == ("realtor", 2.0, 1)
        assert plan.cells[-1].key == ("push-1", 6.0, 2)
        assert plan.cells[-1].config.seed == 2

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            confidence_plan(["realtor"], [2.0], BASE, [])


class TestCanonicalRate:
    def test_erases_binary_noise(self):
        assert canonical_rate(3.0000000000000004) == 3.0
        assert canonical_rate(0.1 + 0.2) == 0.3

    def test_preserves_grid_points(self):
        for rate in (0.01, 0.05, 1.5, 2.0, 9.75, 123.456):
            assert canonical_rate(rate) == rate

    def test_repr_stable_under_roundtrip(self):
        for value in (3.0000000000000004, 0.1 + 0.2, 7.0):
            c = canonical_rate(value)
            assert float(repr(c)) == c
            assert canonical_rate(c) == c
