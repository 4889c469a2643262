"""The paper's figures and what it says about them, as one table.

A figure is a row of :data:`FIGURES`: title, plotted metric, table
format, cell source and :class:`Claim` rows — the paper's sentences
about the curves and the numbers it quotes.  :func:`run_figure` is the
one body that sweeps, tabulates and evaluates (``fig5_...`` to
``fig9_...`` are bindings of it), and the CLI, the tier-1 tests and
``benchmarks/test_figures.py`` read the table, so a claim, a gate band
or a paper number is written once, here.  Shape claims (who wins, where
a knee or peak falls) are gated ``[PASS]``/``[FAIL]`` checks; the quoted
magnitudes are reported ``[MATCH]``/``[DIVERGES]`` and gate nothing —
absolute values are not expected to match a 2003 testbed.
EXPERIMENTS.md records measured-vs-paper per figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.curves import is_monotone, peak, relative_spread
from ..metrics.export import canonical_rate
from ..metrics.report import figure_table
from ..protocols.base import ProtocolConfig
from ..protocols.registry import PAPER_PROTOCOLS
from .ablations import METRICS
from .config import PAPER_LAMBDAS, ExperimentConfig
from .store import RunStore
from .sweep import SweepResults, run_sweep

__all__ = [
    "Claim", "Comparison", "Figure", "FigureResult", "ShapeCheck",
    "FIGURES", "DEFAULT_RATES", "MATCH_WITHIN", "TESTBED", "evaluate", "run_figure",
    "fig5_admission_probability", "fig6_message_overhead",
    "fig7_cost_per_task", "fig8_migration_rate", "fig9_testbed_admission",
]

#: default lambda sweep (the paper's x axis)
DEFAULT_RATES = PAPER_LAMBDAS

#: a measured value MATCHes a number the paper quotes within this
#: relative distance — about what can be read off the printed plots
MATCH_WITHIN = 0.03

Series = Mapping[str, Sequence[float]]


@dataclass(frozen=True)
class Claim:
    """One sentence of the paper about one figure.

    ``needs`` and ``at`` name the series and the lambdas it is about;
    with any of them not swept the claim is not evaluated.  A shape claim
    sets ``check(rates, series)``, returning ``holds`` or ``(holds,
    detail)``.  A magnitude claim sets ``measure(rates, series)`` and
    ``paper``, the ``(lo, hi)`` the paper quotes (equal for one number);
    it is gated only when ``gate`` is set, holding when the value lies
    within that relative distance of ``paper``.
    """

    text: str
    check: Optional[Callable[[Sequence[float], Series], object]] = None
    needs: Tuple[str, ...] = ()
    at: Tuple[float, ...] = ()
    measure: Optional[Callable[[Sequence[float], Series], float]] = None
    paper: Optional[Tuple[float, float]] = None
    gate: Optional[float] = None

    @property
    def gated(self) -> bool:
        return self.measure is None or self.gate is not None


@dataclass
class ShapeCheck:
    """One gated claim, evaluated on the results."""

    claim: str
    passed: bool
    detail: str = ""
    marks = ("PASS", "FAIL")

    def __str__(self) -> str:
        detail = f"  ({self.detail})" if self.detail else ""
        return f"[{self.marks[0] if self.passed else self.marks[1]}] {self.claim}{detail}"


@dataclass
class Comparison(ShapeCheck):
    """An ungated verdict: a measured value against the paper's number."""

    distance: float = 0.0  #: relative, to the nearer end of the paper's lo..hi
    marks = ("MATCH", "DIVERGES")


def evaluate(
    claims: Sequence[Claim], rates: Sequence[float], series: Series
) -> Tuple[List[ShapeCheck], List[Comparison], List[str]]:
    """Gated verdicts, paper-number comparisons and not-evaluated lines.

    The one place a claim is judged.  A predicate that raises is a
    failed check with the error as its detail, so one broken row cannot
    crash a report; only gated claims reach the first list.
    """
    checks: List[ShapeCheck] = []
    magnitudes: List[Comparison] = []
    skipped: List[str] = []
    for claim in claims:
        missing = [n for n in claim.needs if n not in series]
        missing += [f"lambda={r:g}" for r in claim.at if r not in rates]
        if missing:
            skipped.append(f"[SKIP] {claim.text}  ({', '.join(missing)} not swept)")
            continue
        try:
            if claim.measure is None:
                outcome = claim.check(rates, series)
                passed, detail = outcome if isinstance(outcome, tuple) else (outcome, "")
            else:
                value, (lo, hi) = claim.measure(rates, series), claim.paper
                off = max(lo - value, value - hi, 0.0) / (lo if value < lo else hi)
                quoted = f"{lo:.3g}" if lo == hi else f"{lo:.3g}-{hi:.3g}"
                detail = f"measured {value:.3g}, paper {quoted}"
                magnitudes.append(Comparison(
                    claim.text, off <= MATCH_WITHIN, f"{detail}, off by {off:.1%}", off
                ))
                passed = claim.gated and off <= claim.gate
        except Exception as exc:
            passed, detail = False, f"error: {exc!r}"
            if not claim.gated:
                skipped.append(f"[SKIP] {claim.text}  ({detail})")
        if claim.gated:
            checks.append(ShapeCheck(claim.text, passed, detail))
    return checks, magnitudes, skipped


@dataclass
class FigureResult:
    """Everything one figure experiment produced."""

    figure: str
    xs: List[float]
    series: Dict[str, List[float]]
    table: str
    checks: List[ShapeCheck] = field(default_factory=list)
    #: the paper's quoted numbers against the measured ones; never gated
    magnitudes: List[Comparison] = field(default_factory=list)
    #: claims about a series or a lambda that was not swept
    not_evaluated: List[str] = field(default_factory=list)
    raw: Optional[SweepResults] = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = [f"=== {self.figure} ===", self.table, ""]
        lines += map(str, [*self.checks, *self.not_evaluated, *self.magnitudes])
        return "\n".join(lines)


def paper_sweep(rates, protocols, horizon, seed, base, **run) -> SweepResults:
    """Section 5's grid: ``protocols`` x ``rates`` on the 25-node mesh."""
    cfg = (base or ExperimentConfig()).with_(horizon=horizon, seed=seed)
    return run_sweep(protocols, rates, cfg, **run)


#: Section 6's 20-host Agile Objects cluster as a plan cell: every host
#: hears every IP multicast (full mesh, network scope), a HELP multicast
#: and a UDP/TCP unicast each cost one wire message, a LAN hop takes
#: 0.2 ms, queues hold 50 s of work
TESTBED = ExperimentConfig(
    protocol="realtor", protocol_config=ProtocolConfig(scope="network"),
    topology="full", rows=4, cols=5, queue_capacity=50.0, task_mean=5.0,
    unicast_cost="fixed", fixed_unicast_cost=1.0, flood_cost_override=1.0,
    per_hop_latency=0.0002,
)


def cluster_cells(rates, protocols, horizon, seed, base, **run) -> SweepResults:
    """Section 6: REALTOR on :data:`TESTBED` (``testbed``) and on the
    Section 5 simulator scaled to that size (``simulation``), so "the
    same type of shape as in the simulation" is checkable.  The cluster
    has its own parameters; ``base`` does not apply.
    """
    reference = ExperimentConfig(
        protocol="realtor", queue_capacity=TESTBED.queue_capacity,
        topology="full", rows=TESTBED.rows, cols=TESTBED.cols,
    )
    columns = {"testbed": TESTBED, "simulation": reference}
    return {
        name: run_sweep(["realtor"], rates, cfg.with_(horizon=horizon, seed=seed), **run)["realtor"]
        for name, cfg in columns.items() if name in protocols
    }


@dataclass(frozen=True)
class Figure:
    """One figure of the paper: what it plots and what is claimed of it."""

    key: str  #: CLI target, e.g. ``"fig5"``
    title: str
    metric: str  #: the :data:`~repro.experiments.ablations.METRICS` column plotted
    float_fmt: str
    claims: Tuple[Claim, ...]
    #: figures with the same source are projections of one sweep and can
    #: share its cells through ``raw=``
    cells: Callable[..., SweepResults] = paper_sweep
    rates: Tuple[float, ...] = DEFAULT_RATES
    protocols: Tuple[str, ...] = tuple(PAPER_PROTOCOLS)
    horizon: float = 10_000.0


# In the predicates below x is the swept rates and s the series by name.

def _at(name: str, rate: float) -> Callable[[Sequence[float], Series], float]:
    return lambda x, s: s[name][x.index(rate)]


def _others(s: Series, name: str) -> List[Sequence[float]]:
    return [ys for proto, ys in s.items() if proto != name]


def _declines_from(name: str, knee: float) -> Callable[[Sequence[float], Series], bool]:
    return lambda x, s: is_monotone(s[name][x.index(knee):], increasing=False, tolerance=0.01)


def _pull9_grows(x, s):
    ys, mid, third = s["pull-.9"], len(x) // 2, len(x) // 3
    growth = ys[-1] / max(ys[mid], 1.0)
    return ys[-1] > ys[mid] > ys[third], f"growth x{growth:.1f} from mid to max rate"


def _realtor_matches_pulls_at_peak(x, s):
    i = s["realtor"].index(max(s["realtor"]))
    return s["realtor"][i] >= max(s["pull-100"][i], s["pull-.9"][i]) - 0.02


_ROWS = (
    Figure("fig5", "Figure 5: admission probability", "P(admit)", "{:.4g}", (
        # "no big difference ... for all load conditions"
        Claim("five curves close (max spread < 0.05 at every rate)",
              lambda x, s: ((d := max(max(c) - min(c) for c in zip(*s.values()))) < 0.05,
                            f"max spread {d:.3f}")),
        # the knee is lambda = nodes / mean task size
        Claim("REALTOR admission declines past the knee",
              _declines_from("realtor", 5.0), ("realtor",), (5.0,)),
        Claim("REALTOR within 0.02 of the best protocol everywhere",
              lambda x, s: ((d := max(max(c) - r for c, r in
                                      zip(zip(*s.values()), s["realtor"]))) < 0.02,
                            f"worst gap {d:.3f}"),
              ("realtor",)),
        Claim("admission is ~0.95 at the knee (lambda=5)", needs=("realtor",), at=(5.0,),
              measure=_at("realtor", 5.0), paper=(0.95, 0.95)),
        Claim("admission falls to 0.75-0.8 at lambda=10", needs=("realtor",), at=(10.0,),
              measure=_at("realtor", 10.0), paper=(0.75, 0.8)),
    )),
    Figure("fig6", "Figure 6: total messages", "messages", "{:.3g}", (
        Claim("Push-1 overhead is load-independent (flat within 5%)",
              lambda x, s: relative_spread(s["push-1"]) < 0.05, ("push-1",)),
        Claim("Push-1 dominates every other protocol at light load",
              lambda x, s: all(ys[0] < s["push-1"][0] * 0.5 for ys in _others(s, "push-1")),
              ("push-1",)),
        Claim("Pull-.9 overhead keeps growing with load", _pull9_grows, ("pull-.9",)),
        Claim("Pull-100 is the cheapest protocol under overload",
              lambda x, s: all(a <= b for ys in _others(s, "pull-100")
                               for a, b in zip(s["pull-100"][-2:], ys[-2:])),
              ("pull-100",)),
        Claim("REALTOR overhead is a small fraction of pure push (< 1/2)",
              lambda x, s: ((d := s["realtor"][-1] / s["push-1"][-1]) < 0.5,
                            f"REALTOR/Push-1 = {d:.2f} at max rate"),
              ("realtor", "push-1")),
        Claim("REALTOR sits between Pull-100 and Pull-.9 under overload",
              lambda x, s: s["pull-100"][-1] <= s["realtor"][-1] <= s["pull-.9"][-1],
              ("realtor", "pull-100", "pull-.9")),
        Claim("REALTOR's total peaks around one third of Push-1's", needs=("realtor", "push-1"),
              measure=lambda x, s: max(s["realtor"]) / max(s["push-1"]), paper=(1 / 3, 1 / 3)),
    )),
    Figure("fig7", "Figure 7: cost per admitted task", "msg/task", "{:.1f}", (
        Claim("Push-1 costs ~200 messages per admitted task at lambda=5",
              needs=("push-1",), at=(5.0,),
              measure=_at("push-1", 5.0), paper=(200.0, 200.0), gate=0.5),
        Claim("all other protocols cost < 50 per task at lambda=5", at=(5.0,),
              measure=lambda x, s: max(
                  (ys[x.index(5.0)] for ys in _others(s, "push-1")), default=0.0),
              paper=(0.0, 50.0), gate=0.0),
        # threshold-crossing churn peaks, then HELP suppression kicks in
        Claim("REALTOR cost-per-task peaks at moderate overload (5 <= lambda <= 8)",
              lambda x, s: (5.0 <= (d := peak(x, s["realtor"])[0]) <= 8.0,
                            f"peak at lambda={d:g}"),
              ("realtor",)),
        Claim("REALTOR cost-per-task decreases under deep overload",
              lambda x, s: s["realtor"][-1] < max(s["realtor"]), ("realtor",)),
    )),
    Figure("fig8", "Figure 8: migration rate", "mig-rate", "{:.3f}", (
        Claim("REALTOR migration rate peaks under overload then declines (suppressed HELPs)",
              lambda x, s: ((d := peak(x, s["realtor"])[0]) >= 6.0, f"peak at lambda={d:g}"),
              ("realtor",), (6.0,)),
        Claim("REALTOR migrates at least as much as the pull baselines at peak",
              _realtor_matches_pulls_at_peak, ("realtor", "pull-100", "pull-.9")),
        Claim("Pull-100 has the lowest migration rate under deep overload "
              "(untimely information)",
              lambda x, s: all(s["pull-100"][-1] <= ys[-1] + 0.01
                               for ys in _others(s, "pull-100")),
              ("pull-100",)),
        Claim("REALTOR's migration rate peaks at ~30% near lambda=8", needs=("realtor",),
              at=(8.0,), measure=lambda x, s: max(s["realtor"]), paper=(0.30, 0.30)),
    )),
    Figure("fig9", "Figure 9: testbed admission probability", "P(admit)", "{:.3f}", (
        Claim("testbed admission declines past the 20-host knee (lambda ~ 4)",
              _declines_from("testbed", 4.0), ("testbed",), (4.0,)),
        Claim("testbed curve matches the simulation shape (gap < 0.05)",
              lambda x, s: ((d := max(abs(a - b) for a, b in
                                      zip(s["testbed"], s["simulation"]))) < 0.05,
                            f"max |testbed - sim| = {d:.3f}"),
              ("testbed", "simulation")),
    ), cells=cluster_cells, rates=DEFAULT_RATES[:8], protocols=("testbed", "simulation"),
       horizon=5_000.0),
)
FIGURES: Dict[str, Figure] = {row.key: row for row in _ROWS}


def run_figure(
    key: str,
    rates: Optional[Sequence[float]] = None,
    *,
    horizon: Optional[float] = None,
    seed: int = 1,
    protocols: Optional[Sequence[str]] = None,
    base: Optional[ExperimentConfig] = None,
    parallel: bool = False,
    raw: Optional[SweepResults] = None,
    store: Optional[RunStore] = None,
    force: bool = False,
) -> FigureResult:
    """Sweep (unless ``raw`` already holds the cells), tabulate and
    evaluate one row of :data:`FIGURES`; ``rates``, ``protocols`` and
    ``horizon`` default to the row's own."""
    fig = FIGURES[key]
    metric = METRICS[fig.metric]
    xs = list(fig.rates if rates is None else rates)
    if raw is None:
        raw = fig.cells(
            xs, fig.protocols if protocols is None else protocols,
            fig.horizon if horizon is None else horizon, seed, base,
            parallel=parallel, store=store, force=force,
        )
    keys = [canonical_rate(x) for x in xs]
    series = {
        name: [metric(cells[x]) for x in keys if x in cells]
        for name, cells in raw.items()
    }
    table = figure_table(raw, metric, float_fmt=fig.float_fmt)
    return FigureResult(fig.title, xs, series, table, *evaluate(fig.claims, xs, series), raw)


fig5_admission_probability = partial(run_figure, "fig5")
fig6_message_overhead = partial(run_figure, "fig6")
fig7_cost_per_task = partial(run_figure, "fig7")
fig8_migration_rate = partial(run_figure, "fig8")
fig9_testbed_admission = partial(run_figure, "fig9")
