"""Tests for declarative experiment plans."""

import pytest

from repro.experiments.confidence import confidence_sweep
from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import execute_plan
from repro.experiments.plan import ExperimentPlan, PlanCell, grid_plan, sweep_plan
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import run_sweep
from repro.experiments.store import canonical_rate, result_to_canonical_json

BASE = ExperimentConfig(horizon=120.0, arrival_rate=5.0)


class TestSweepPlan:
    def test_expansion_order_is_protocol_major(self):
        plan = sweep_plan(["realtor", "push-1"], [2.0, 6.0], BASE)
        assert [cell.key for cell in plan] == [
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
        """``execute_plan`` keys results by cell, in cell order, and
        ``run_sweep`` nests them ``[protocol][rate]``."""
        base = BASE.with_(horizon=40.0)
        plan = sweep_plan(["realtor", "push-1"], [2.0], base)
        results = execute_plan(plan)
        assert list(results) == [("realtor", 2.0), ("push-1", 2.0)]
        assert run_sweep(["realtor", "push-1"], [2.0], base) == {
            "realtor": {2.0: results["realtor", 2.0]},
            "push-1": {2.0: results["push-1", 2.0]},
        }

    def test_reduce_rejects_wrong_cardinality(self):
        """A rate given twice (``5`` and ``5.0`` are one canonical rate)
        is refused at construction instead of simulated twice and kept
        once."""
        with pytest.raises(ValueError, match=r"duplicate cell key \('realtor', 5.0\)"):
            sweep_plan(["realtor"], [5, 5.0], BASE)

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
    """Replications are the seed axis of ``confidence_sweep``'s grid."""

    def test_one_cell_per_seed(self):
        est = confidence_sweep(
            ["realtor"], [5.0], BASE.with_(horizon=40.0), seeds=[3, 1, 2]
        )["realtor"][5.0]
        assert [r.params["seed"] for r in est.runs] == [3, 1, 2]
        assert est.summary.n == 3

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            confidence_sweep(["realtor"], [5.0], BASE, seeds=[])


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
        """A scalar key and its 1-tuple are one cell key: given twice,
        the plan refuses them, whichever way each was spelled."""
        with pytest.raises(ValueError, match="duplicate cell key"):
            grid_plan("x", [(1, BASE), (1, BASE.with_(seed=2))])
        with pytest.raises(ValueError, match=r"plan 'x' .* \('a',\)"):
            grid_plan("x", [("a", BASE), (("a",), BASE)])
        with pytest.raises(ValueError, match="duplicate cell key"):
            ExperimentPlan("x", (PlanCell((1,), BASE), PlanCell((1,), BASE)))


class TestConfidencePlan:
    def test_full_grid(self):
        """The (protocol × rate × seed) grid is one plan: every cell is
        keyed, and each point groups its own seeds' runs."""
        out = confidence_sweep(
            ["realtor", "push-1"], [2.0, 6.0], BASE.with_(horizon=40.0), seeds=[1, 2]
        )
        assert {p: list(pts) for p, pts in out.items()} == {
            "realtor": [2.0, 6.0], "push-1": [2.0, 6.0],
        }
        last = out["push-1"][6.0]
        assert [r.params["seed"] for r in last.runs] == [1, 2]
        assert all(r.params["protocol"] == "push-1" for r in last.runs)
        assert all(r.params["lambda"] == 6.0 for r in last.runs)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            confidence_sweep(["realtor"], [2.0], BASE, seeds=[])


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
