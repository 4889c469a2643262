"""The fleet, churn and ranking axes end to end: asked-for defaults are
inert, churn is deterministic serially and through a pool (rows of
:mod:`tests.contracts`), and a (policy x rate) grid reduces to the
ablation shape.
"""

import hashlib

from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import execute_plan
from repro.experiments.plan import grid_plan
from repro.experiments.runner import build_system, run_experiment
from repro.workload.fleet import FleetConfig
from tests.contracts import CELLS, check, observe

BASE = CELLS["defaults"]
CHURN_CFG = CELLS["churn"].with_(trace=False)


class TestDefaultEquivalence:
    def test_explicit_defaults_are_byte_identical_to_implicit(self):
        implicit, explicit = check("defaults.explicit")
        assert implicit.records and explicit.result.params["fleet"] == "custom"

    def test_inactive_churn_installs_nothing(self):
        assert "churn_scheduled" not in observe("defaults", "explicit_defaults").result.extra

    def test_pinned_pre_seam_hash(self):
        """The exact trace hash of this scenario measured before the
        ranking seam / fleet / churn axes landed — the refactor must
        never move it."""
        system = build_system(ExperimentConfig(
            protocol="realtor", arrival_rate=12.0, horizon=90.0,
            seed=20260808, trace=True,
        ))
        system.run()
        h = hashlib.sha256()
        for rec in system.sim.trace.records:
            h.update(repr((rec.time, rec.category, tuple(sorted(rec.payload.items())))).encode())
        assert h.hexdigest() == (
            "fbc36e92329cb4d51229a4880af404cd9656795eeeb49889eda310904ffcbaa1"
        )


class TestChurnDeterminism:
    def test_repeat_runs_identical(self):
        run, _again = check("churn.again")
        assert run.result.extra["churn_joins"] + run.result.extra["churn_leaves"] > 0

    def test_serial_and_parallel_execution_agree(self):
        serial, _parallel = check("churn-grid.parallel")
        assert [key for key, _ in serial.result] == [("calm",), ("stormy",)]

    def test_churn_accounting_balances(self):
        extra = run_experiment(CHURN_CFG).extra
        assert extra["churn_scheduled"] > 0
        assert (
            extra["churn_joins"] + extra["churn_leaves"] + extra["churn_skipped"]
            == extra["churn_scheduled"]
        )
        assert extra["nodes_final"] == (
            CHURN_CFG.num_nodes + extra["churn_joins"] - extra["churn_leaves"]
        )

    def test_params_self_describe_churn_and_fleet(self):
        result = run_experiment(CHURN_CFG.with_(horizon=30.0))
        assert result.params["fleet"] == "heterogeneous"
        assert result.params["churn_join_rate"] == 0.05
        assert result.params["ranking"] == "headroom"
        assert result.extra["fleet_speed_cv"] > 0.0


class TestRankingGrid:
    def test_ranking_plan_reduces_to_policy_rate_grid(self):
        base = BASE.with_(trace=False)
        plan = grid_plan("ranking", [
            ((policy, rate), base.with_(
                protocol_config=base.protocol_config.with_(ranking_policy=policy),
                arrival_rate=rate,
            ))
            for policy in ("headroom", "composite")
            for rate in (6.0, 9.0)
        ])
        results = execute_plan(plan)
        assert list(results) == [
            ("headroom", 6.0), ("headroom", 9.0), ("composite", 6.0), ("composite", 9.0),
        ]
        for (policy, rate), res in results.items():
            assert res.params["ranking"] == policy
            assert res.params["lambda"] == rate

    def test_fleet_plan_control_point_is_uniform(self):
        base = BASE.with_(trace=False, horizon=60.0)
        plan = grid_plan(
            "fleet",
            [("uniform", base), ("hetero", base.with_(fleet=FleetConfig.heterogeneous()))],
        )
        results = execute_plan(plan)
        assert "fleet_capacity_cv" not in results["uniform",].extra
        assert results["hetero",].extra["fleet_capacity_cv"] > 0.0
