"""Tests for the ablation studies (reduced horizons)."""

import json
from pathlib import Path

import pytest

from repro.experiments.ablations import METRICS, STUDIES, run_study
from repro.experiments.plan import grid_plan
from repro.experiments.store import config_digest

H = 200.0


class TestAlphaBeta:
    def test_rows_per_pair(self):
        r = run_study("a1", pairs=((0.5, 0.5), (2.0, 0.1)), horizon=H)
        assert len(r.rows) == 2
        assert r.raw[(0.5, 0.5)].generated > 0
        assert "alpha" in r.table

    def test_aggressive_backoff_reduces_messages(self):
        r = run_study(
            "a1", pairs=((0.1, 0.9), (3.0, 0.05)), arrival_rate=9.0, horizon=600.0
        )
        eager = r.raw[(0.1, 0.9)].messages_total
        shy = r.raw[(3.0, 0.05)].messages_total
        assert shy < eager


class TestThreshold:
    def test_rows_and_metrics(self):
        r = run_study("a2", thresholds=(0.5, 0.9), horizon=H)
        assert len(r.rows) == 2
        for res in r.raw.values():
            assert 0.0 <= res.admission_probability <= 1.0


class TestRetryPolicy:
    def test_more_tries_never_hurt_admission(self):
        r = run_study(
            "a5", policies=("one-shot", "3-try"), arrival_rate=8.0, horizon=600.0
        )
        one = r.raw["one-shot"].admission_probability
        three = r.raw["3-try"].admission_probability
        assert three >= one - 0.005

    def test_random_policy_runs(self):
        r = run_study("a5", policies=("random",), horizon=H)
        assert r.raw["random"].generated > 0


class TestScalability:
    def test_constant_load_scaling(self):
        r = run_study("a3", sizes=((3, 3), (5, 5)), horizon=300.0)
        assert set(r.raw) == {9, 25}
        # offered load equal => admission probabilities comparable
        a, b = r.raw[9], r.raw[25]
        assert abs(a.admission_probability - b.admission_probability) < 0.15

    def test_lambda_scales_with_size(self):
        r = run_study("a3", sizes=((3, 3), (5, 5)), load=1.0, horizon=200.0)
        lam9 = [row for row in r.rows if row[0] == 9][0][1]
        lam25 = [row for row in r.rows if row[0] == 25][0][1]
        assert lam25 / lam9 == pytest.approx(25 / 9)


class TestAttack:
    def test_zero_victims_baseline(self):
        r = run_study("a4", victims_list=(0,), horizon=H)
        res = r.raw[0]
        assert res.evacuations == 0
        assert res.lost == 0

    def test_attacks_cause_evacuations(self):
        r = run_study("a4", victims_list=(3,), arrival_rate=4.0,
                      horizon=1000.0, dwell=100.0)
        res = r.raw[3]
        assert res.evacuations > 0

    def test_severity_monotone_in_evacuations(self):
        r = run_study("a4", victims_list=(1, 6), arrival_rate=4.0,
                      horizon=1000.0, dwell=80.0)
        assert r.raw[6].evacuations >= r.raw[1].evacuations


class TestTopologySensitivity:
    def test_all_shapes_run(self):
        r = run_study("b2", topologies=("mesh", "ring"), horizon=150.0)
        assert set(r.raw) == {"mesh", "ring"}
        for res in r.raw.values():
            assert res.generated > 0

    def test_sparser_overlay_stales_faster(self):
        r = run_study("b2", topologies=("tree", "full"), horizon=300.0,
                      arrival_rate=7.0)
        # a tree's leaves see almost nothing; the full mesh sees everyone
        assert (
            r.raw["tree"].extra["view_staleness"]
            > r.raw["full"].extra["view_staleness"] * 0.5
        )


class TestLatencySensitivity:
    def test_zero_latency_assumption_validated(self):
        r = run_study("b3", latencies=(0.0, 0.01), horizon=300.0)
        a = r.raw[0.0].admission_probability
        b = r.raw[0.01].admission_probability
        # millisecond-scale latency is invisible at task-second scale
        assert abs(a - b) < 0.01

    def test_rows_rendered(self):
        r = run_study("b3", latencies=(0.0,), horizon=100.0)
        assert "latency" in r.table


class TestRankingAblation:
    def test_headroom_vs_composite_grid(self):
        r = run_study(
            "b4", policies=("headroom", "composite"), horizon=400.0,
            arrival_rate=9.0, churn_rate=0.02,
        )
        assert set(r.raw) == {"headroom", "composite"}
        assert "misrank" in r.table and "fb-depth" in r.table
        for policy, res in r.raw.items():
            assert res.params["ranking"] == policy
            # heterogeneous fleet + churn actually ran in every cell
            assert res.extra["fleet_speed_cv"] > 0.0
            assert res.extra["churn_scheduled"] > 0


class TestStudiesTable:
    """Every row of STUDIES, at its default axis."""

    #: the 88 default-parameter (plan, key, digest) triples that stores
    #: written so far are keyed by; a moved digest orphans their records
    RECORDED = json.loads(
        (Path(__file__).parent / "data" / "study_digests.json").read_text()
    )

    def test_rows_are_well_formed(self):
        assert list(STUDIES) == [
            "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8",
            "b1", "b2", "b3", "b4", "b5",
        ]
        for key, study in STUDIES.items():
            assert study.key == key
            assert study.doc.startswith(f"{key.upper()}: ")
            assert "horizon" in study.params and "seed" in study.params
            metrics = [*study.columns, *(m for _, m in study.pivot)]
            assert metrics and set(metrics) <= set(METRICS)

    @pytest.mark.parametrize("key", list(STUDIES))
    def test_default_cells_match_recorded_digests(self, key):
        study = STUDIES[key]
        plan = grid_plan(study.plan, study.cells(**study.params))
        assert [
            [plan.name, list(cell.key), config_digest(cell.config)]
            for cell in plan.cells
        ] == self.RECORDED[key]

    @pytest.mark.parametrize("key", list(STUDIES))
    def test_runs_at_default_axis(self, key):
        r = run_study(key, horizon=60.0)
        recorded = self.RECORDED[key]
        assert {plan for plan, _, _ in recorded} == {STUDIES[key].plan}
        cell_keys = [tuple(k) if len(k) > 1 else k[0] for _, k, _ in recorded]
        assert list(r.raw) == cell_keys
        assert r.rows and all(len(row) == len(r.headers) for row in r.rows)
        assert r.name.startswith(key.upper()) and "{" not in r.name

    def test_unknown_override_lists_the_parameters(self):
        with pytest.raises(TypeError) as exc:
            run_study("a5", thresholds=(0.5,))
        msg = str(exc.value)
        assert "'thresholds'" in msg
        for name in ("policies", "arrival_rate", "horizon", "seed", "protocol"):
            assert name in msg
