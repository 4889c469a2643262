"""End-to-end tests for the fleet/churn/ranking experiment axes.

Three contracts pinned here:

* **default equivalence** — explicitly asking for the defaults (headroom
  ranking, an all-default fleet, a zero-rate churn config) produces a
  byte-identical event trace to not asking at all, so the new axes are
  provably inert until opted into;
* **churn determinism** — the schedule comes from the kernel's named
  ``"churn"`` substream, so identical configs produce identical results
  whether cells run serially in one process or across a process pool;
* **ranking grid** — a (policy × rate) grid plan reduces to the
  ablation shape and each cell self-describes its policy.
"""

import dataclasses
import hashlib

from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import execute_plan
from repro.experiments.plan import grid_plan
from repro.experiments.runner import build_system, run_experiment
from repro.protocols.base import ProtocolConfig
from repro.workload.churn import ChurnConfig
from repro.workload.fleet import FleetConfig


def _trace_hash(cfg: ExperimentConfig) -> str:
    system = build_system(cfg)
    system.run()
    h = hashlib.sha256()
    for rec in system.sim.trace.records:
        h.update(
            repr((rec.time, rec.category, tuple(sorted(rec.payload.items()))))
            .encode()
        )
    return h.hexdigest()


BASE = ExperimentConfig(
    protocol="realtor", arrival_rate=8.0, horizon=120.0, seed=7, trace=True
)


class TestDefaultEquivalence:
    def test_explicit_defaults_are_byte_identical_to_implicit(self):
        explicit = BASE.with_(
            protocol_config=ProtocolConfig(ranking_policy="headroom"),
            fleet=FleetConfig(),          # every axis None: uniform fleet
            churn=ChurnConfig(),          # zero rates: inactive
        )
        assert _trace_hash(explicit) == _trace_hash(BASE)

    def test_inactive_churn_installs_nothing(self):
        system = build_system(BASE.with_(churn=ChurnConfig()))
        system.run()
        assert "churn_scheduled" not in system.result().extra

    def test_pinned_pre_seam_hash(self):
        """The exact trace hash of this scenario measured before the
        ranking seam / fleet / churn axes landed — the refactor must
        never move it."""
        cfg = ExperimentConfig(
            protocol="realtor", arrival_rate=12.0, horizon=90.0,
            seed=20260808, trace=True,
        )
        assert _trace_hash(cfg) == (
            "fbc36e92329cb4d51229a4880af404cd9656795eeeb49889eda310904ffcbaa1"
        )


CHURN_CFG = ExperimentConfig(
    protocol="realtor",
    arrival_rate=10.0,
    horizon=120.0,
    seed=42,
    fleet=FleetConfig.heterogeneous(),
    churn=ChurnConfig(join_rate=0.05, leave_rate=0.03),
)


class TestChurnDeterminism:
    def test_repeat_runs_identical(self):
        a = dataclasses.asdict(run_experiment(CHURN_CFG))
        b = dataclasses.asdict(run_experiment(CHURN_CFG))
        assert a == b

    def test_serial_and_parallel_execution_agree(self):
        base = CHURN_CFG.with_(horizon=80.0)
        plan = grid_plan(
            "churn",
            [
                ("calm", base.with_(churn=ChurnConfig(join_rate=0.02, leave_rate=0.01))),
                ("stormy", base.with_(churn=ChurnConfig(join_rate=0.08, leave_rate=0.06))),
            ],
        )
        serial = execute_plan(plan)
        parallel = execute_plan(plan, parallel=True, max_workers=2)
        assert list(serial) == list(parallel)
        assert [dataclasses.asdict(r) for r in serial.values()] == [
            dataclasses.asdict(r) for r in parallel.values()
        ]

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
