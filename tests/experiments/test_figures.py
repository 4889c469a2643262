"""Tests for the figure harness (reduced horizons — shape checks run at
full scale in benchmarks/)."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    FIGURES,
    FigureResult,
    fig5_admission_probability,
    fig6_message_overhead,
    fig7_cost_per_task,
    fig8_migration_rate,
    fig9_testbed_admission,
)
from repro.experiments.sweep import run_sweep
from repro.protocols.registry import PAPER_PROTOCOLS

RATES = (2.0, 5.0, 8.0)
H = 150.0


@pytest.fixture(scope="module")
def sweep():
    """Figures 5-8 are projections of one sweep: simulate it once."""
    return run_sweep(PAPER_PROTOCOLS, RATES, ExperimentConfig(horizon=H))


class TestFigureMachinery:
    def test_fig5_structure(self, sweep):
        r = fig5_admission_probability(RATES, raw=sweep)
        assert isinstance(r, FigureResult)
        assert r.xs == list(RATES)
        assert set(r.series) == {"pull-.9", "push-1", "push-.9", "pull-100", "realtor"}
        assert all(len(v) == 3 for v in r.series.values())
        assert "lambda" in r.table
        assert r.checks  # has shape checks

    def test_fig5_values_are_probabilities(self, sweep):
        r = fig5_admission_probability(RATES, raw=sweep)
        for series in r.series.values():
            assert all(0.0 <= v <= 1.0 for v in series)

    def test_fig6_message_totals_nonnegative(self, sweep):
        r = fig6_message_overhead(RATES, raw=sweep)
        for series in r.series.values():
            assert all(v >= 0.0 for v in series)
        # pure push must dominate at light load even on short runs
        assert r.series["push-1"][0] > r.series["realtor"][0]

    def test_fig7_per_task_cost(self, sweep):
        r = fig7_cost_per_task(RATES, raw=sweep)
        # push-1 at lambda=5 sits inside the row's gate band around the
        # paper's number regardless of horizon (flat in time)
        claim = FIGURES["fig7"].claims[0]
        (lo, hi), gate = claim.paper, claim.gate
        assert claim.needs == ("push-1",) and claim.at == (5.0,)
        assert lo * (1 - gate) <= r.series["push-1"][r.xs.index(5.0)] <= hi * (1 + gate)

    def test_fig8_rates_in_unit_interval(self, sweep):
        r = fig8_migration_rate(RATES, raw=sweep)
        for series in r.series.values():
            assert all(0.0 <= v <= 1.0 for v in series)

    def test_subset_of_protocols(self):
        r = fig5_admission_probability(
            (2.0,), horizon=H, protocols=("realtor", "push-1")
        )
        assert set(r.series) == {"realtor", "push-1"}

    def test_summary_renders(self):
        r = fig5_admission_probability((2.0,), horizon=H,
                                       protocols=("realtor",))
        text = r.summary()
        assert "Figure 5" in text
        assert "[" in text  # check markers

    def test_fig9_testbed_and_reference(self):
        r = fig9_testbed_admission((1.0, 5.0), horizon=200.0)
        assert "testbed" in r.series and "simulation" in r.series
        assert len(r.series["testbed"]) == 2
        # light load fully admitted in both
        assert r.series["testbed"][0] == pytest.approx(1.0, abs=0.02)

    def test_fig9_without_reference(self):
        r = fig9_testbed_admission((1.0,), horizon=150.0, protocols=("testbed",))
        assert set(r.series) == {"testbed"}
        # the claim about the reference is listed, not silently dropped
        assert any("simulation not swept" in line for line in r.not_evaluated)


class TestNotEvaluated:
    """A claim about a series or a lambda that was not swept is listed as
    not evaluated: no verdict, no exception, no effect on the gate."""

    def test_protocol_subset_does_not_crash_the_checks(self):
        # KeyError: 'push-1' at the parent, likewise fig7 / fig8
        for fig in (fig6_message_overhead, fig7_cost_per_task, fig8_migration_rate):
            r = fig((4.0, 6.0, 8.0), horizon=100.0, protocols=("realtor", "pull-100"))
            assert not any("error" in c.detail for c in r.checks)
            assert r.not_evaluated
            assert all("not swept" in line for line in r.not_evaluated)
            assert all("Push-1" not in c.claim for c in r.checks)

    def test_claim_about_an_unswept_rate_is_not_evaluated_elsewhere(self, sweep):
        # the parent printed "[PASS] Push-1 costs ~200 ... at lambda=5"
        # from the lambda=8 column of a sweep that never ran lambda=5
        r = fig7_cost_per_task((2.0, 8.0), raw=sweep)
        at_5 = [c.text for c in FIGURES["fig7"].claims if 5.0 in c.at]
        assert len(at_5) == 2
        assert [line.split("  (")[0] for line in r.not_evaluated] == [
            f"[SKIP] {text}" for text in at_5
        ]
        assert all("lambda=5 not swept" in line for line in r.not_evaluated)
        assert not {c.claim for c in r.checks} & set(at_5)
        assert not any("lambda=5" in str(m) for m in r.magnitudes)

    def test_fig5_knee_needs_the_knee(self, sweep):
        r = fig5_admission_probability((2.0, 8.0), raw=sweep)
        assert any("declines past the knee" in line for line in r.not_evaluated)
        assert all("knee" not in c.claim for c in r.checks)

    def test_not_evaluated_never_gates(self, sweep):
        r = fig7_cost_per_task((2.0, 8.0), raw=sweep)
        assert r.not_evaluated
        assert r.all_passed == all(c.passed for c in r.checks)
        skips = [line for line in r.summary().splitlines() if line.startswith("[SKIP]")]
        assert skips == r.not_evaluated


class TestMagnitudes:
    def test_reported_after_the_verdicts_and_never_gated(self, sweep):
        r = fig8_migration_rate(RATES, raw=sweep)
        assert [m.claim for m in r.magnitudes] == [
            c.text for c in FIGURES["fig8"].claims if c.paper
        ]
        # the reproduction's known gap: ~10% measured against the paper's ~30%
        peak = r.magnitudes[0]
        assert not peak.passed and "DIVERGES" in str(peak) and peak.distance > 0.5
        assert peak.claim not in {c.claim for c in r.checks}
        text = r.summary().splitlines()
        assert text.index(str(peak)) > max(text.index(str(c)) for c in r.checks)

    def test_full_set_keeps_the_parent_verdict_counts(self):
        # what bench/workloads.py reads: 3 / 6 / 4 / 3 checks, (+2) for fig9
        from repro.experiments.figures import DEFAULT_RATES, evaluate

        flat = {p: [1.0] * len(DEFAULT_RATES) for p in PAPER_PROTOCOLS}
        counts = [
            len(evaluate(FIGURES[k].claims, list(DEFAULT_RATES), flat)[0])
            for k in ("fig5", "fig6", "fig7", "fig8")
        ]
        assert counts == [3, 6, 4, 3]
        assert sum(c.gated for c in FIGURES["fig9"].claims) == 2
