"""Unit tests for paper-vs-measured comparisons: the evaluator of the
``FIGURES`` claim table, on synthetic curves (no simulation)."""

import pytest

from repro.experiments.figures import DEFAULT_RATES, FIGURES, Claim, evaluate


class TestExpectation:
    def test_evaluate_pass(self):
        claim = Claim("sum positive", lambda xs, s: sum(s["a"]) > 0, needs=("a",))
        (out,), _, skipped = evaluate([claim], [1, 2], {"a": [1.0, 2.0]})
        assert out.passed and not skipped
        assert str(out) == "[PASS] sum positive"

    def test_evaluate_fail(self):
        claim = Claim("always false", lambda xs, s: (False, "because"))
        (out,), _, _ = evaluate([claim], [], {})
        assert not out.passed
        assert str(out) == "[FAIL] always false  (because)"

    def test_exception_becomes_failure(self):
        # an undeclared need: the predicate raises, the report survives
        claim = Claim("missing key", lambda xs, s: s["nope"][0] > 0)
        (out,), _, _ = evaluate([claim], [1], {})
        assert not out.passed
        assert "error" in out.detail and "nope" in out.detail


def _curves(tails):
    """Series over ``DEFAULT_RATES``: zero at light load, then the given tail."""
    return {
        name: [0.0] * (len(DEFAULT_RATES) - len(tail)) + [float(v) for v in tail]
        for name, tail in tails.items()
    }


def paper_shaped():
    """Curves with the shapes and the magnitudes the paper draws, by row."""
    fall = [0.95, 0.91, 0.87, 0.83, 0.80, 0.78]
    fig5 = {
        name: [1.0] * 4 + [v + lift for v in fall]
        for name, lift in (("pull-.9", 0.0), ("push-1", 0.0), ("push-.9", 0.003),
                           ("pull-100", 0.0), ("realtor", 0.004))
    }
    fig6 = _curves({
        "pull-.9": [1e6, 2e6, 3e6, 4e6, 5e6, 6e6],
        "push-1": [1e7] * 10,
        "push-.9": [3e5, 4e5, 5e5, 5e5, 5e5, 5e5],
        "pull-100": [2e5] * 6,
        "realtor": [1e6, 2.5e6, 3.3e6, 3.3e6, 3.1e6, 3e6],
    })
    fig7 = _curves({
        "pull-.9": [10, 20, 30, 38, 44, 48],
        "push-1": [1000, 500, 333, 250, 200, 170, 150, 135, 125, 118],
        "push-.9": [5, 8, 10, 12, 12, 12],
        "pull-100": [8, 12, 10, 8, 6, 5],
        "realtor": [12, 30, 25, 18, 12, 9],
    })
    fig8 = _curves({
        "pull-.9": [0.03, 0.08, 0.12, 0.15, 0.16, 0.17],
        "push-1": [0.05, 0.14, 0.20, 0.22, 0.22, 0.22],
        "push-.9": [0.04, 0.10, 0.15, 0.18, 0.19, 0.19],
        "pull-100": [0.03, 0.07, 0.10, 0.11, 0.09, 0.07],
        "realtor": [0.05, 0.15, 0.25, 0.30, 0.27, 0.24],
    })
    testbed = [1.0, 1.0, 1.0, 0.99, 0.95, 0.90, 0.85, 0.80]
    fig9 = {"testbed": testbed, "simulation": [v - 0.001 for v in testbed]}
    return {"fig5": fig5, "fig6": fig6, "fig7": fig7, "fig8": fig8, "fig9": fig9}


def _set(name, index, value):
    def perturb(series):
        series[name][index] = value
    return perturb


def _shift(names, indices, by):
    def perturb(series):
        for name in names:
            for i in indices:
                series[name][i] += by
    return perturb


ALL5 = ("pull-.9", "push-1", "push-.9", "pull-100", "realtor")
LATE = range(4, 10)

#: (row, position among its gated claims) -> a perturbation of the
#: paper-shaped curves aimed at that claim: it flips that claim and no
#: other gated claim of the row (no two claims overlap so far that they
#: can only flip together)
PERTURBATIONS = {
    # one straggler at the top rate: spread, but nobody above REALTOR
    ("fig5", 0): _set("pull-100", 9, 0.70),
    # every curve climbs back at lambda=8: spread and gap unchanged
    ("fig5", 1): _shift(ALL5, [7], 0.10),
    ("fig5", 2): _shift(["realtor"], LATE, -0.03),
    ("fig6", 0): _set("push-1", 9, 2e7),
    ("fig6", 1): _set("realtor", 0, 6e6),
    ("fig6", 2): _set("pull-.9", 5, 0.0),
    ("fig6", 3): _set("pull-100", 8, 9e6),
    ("fig6", 4): _set("realtor", 9, 5.5e6),
    # Pull-.9 dips under REALTOR at the top rate but still grows
    ("fig6", 5): _set("pull-.9", 9, 2.5e6),
    ("fig7", 0): _set("push-1", 4, 350.0),
    ("fig7", 1): _set("pull-.9", 4, 80.0),
    ("fig7", 2): _set("realtor", 8, 40.0),
    # a tie with the peak at the top rate: the peak stays at lambda=6
    ("fig7", 3): _set("realtor", 9, 30.0),
    ("fig8", 0): _set("realtor", 4, 0.50),
    ("fig8", 1): _set("pull-.9", 7, 0.40),
    ("fig8", 2): _set("pull-100", 9, 0.30),
    ("fig9", 0): _shift(["testbed", "simulation"], [6], 0.10),
    ("fig9", 1): _shift(["simulation"], range(8), -0.10),
}


def verdicts(key, series):
    row = FIGURES[key]
    checks, magnitudes, skipped = evaluate(row.claims, list(row.rates), series)
    assert not skipped, skipped
    return checks, magnitudes


class TestStandardExpectations:
    def test_all_match_on_paper_shaped_data(self):
        for key, series in paper_shaped().items():
            checks, magnitudes = verdicts(key, series)
            assert all(c.passed for c in checks), [str(c) for c in checks]
            assert all(m.passed for m in magnitudes), [str(m) for m in magnitudes]
            assert len(magnitudes) == sum(1 for c in FIGURES[key].claims if c.paper)

    def test_missing_figure_reported(self):
        # nothing swept: every claim that names a series or a lambda is
        # listed as not evaluated, and nothing passes
        for row in FIGURES.values():
            checks, magnitudes, skipped = evaluate(row.claims, [], {})
            named = [c for c in row.claims if c.needs or c.at]
            assert len(skipped) == len(named) > 0
            assert all("not swept" in line for line in skipped)
            assert not magnitudes and not any(c.passed for c in checks)

    def test_diverging_data_detected(self):
        series = paper_shaped()["fig6"]
        series["push-1"] = [10.0, 200.0, 50.0, 400.0] + [1e7] * 6  # not flat
        checks, _ = verdicts("fig6", series)
        assert [c.claim for c in checks if not c.passed] == [
            c.claim for c in checks if "flat" in c.claim
        ]

    @pytest.mark.parametrize(
        "key,position",
        [(key, i) for key, row in FIGURES.items()
         for i in range(sum(c.gated for c in row.claims))],
    )
    def test_every_gated_claim_flips_under_its_own_perturbation(self, key, position):
        """No predicate is vacuous or shadowed: on paper-shaped curves it
        passes, and a perturbation aimed at it flips it and only it."""
        series = paper_shaped()[key]
        before, _ = verdicts(key, series)
        assert all(c.passed for c in before)
        PERTURBATIONS[key, position](series)
        after, _ = verdicts(key, series)
        flipped = [i for i, c in enumerate(after) if not c.passed]
        assert flipped == [position], [str(c) for c in after]
