"""Replication-based confidence analysis for the figure points.

The paper's figures are single curves with no error bars; this module
quantifies the sampling uncertainty the figures omit.  Each (protocol,
rate) point is replicated across independent seeds and summarised with a
mean ± half-width plus the Wilson interval on the pooled admission
counts, so a claim like "REALTOR ≥ Pull-100 at λ=8" can be tested with
an actual z statistic instead of curve eyeballing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING

from ..analysis.report import format_table
from ..analysis.stats import SummaryStats, proportion_ci, summarize, two_proportion_z
from ..metrics.collector import RunResult
from .config import ExperimentConfig
from .executor import execute_plan
from .plan import confidence_plan
from .store import canonical_rate

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.telemetry import ProgressReporter
    from .store import RunStore

__all__ = ["PointEstimate", "confidence_sweep", "compare_protocols"]


@dataclass(frozen=True)
class PointEstimate:
    """Replicated estimate of one metric at one (protocol, rate) point."""

    protocol: str
    arrival_rate: float
    summary: SummaryStats
    #: pooled successes/trials for proportion metrics (admission)
    pooled_successes: int
    pooled_trials: int
    runs: tuple

    @property
    def wilson(self):
        """(p, low, high) over the pooled counts."""
        return proportion_ci(self.pooled_successes, max(self.pooled_trials, 1))


def confidence_sweep(
    protocols: Sequence[str],
    rates: Sequence[float],
    base: ExperimentConfig,
    *,
    seeds: Iterable[int] = range(5),
    metric: Callable[[RunResult], float] = lambda r: r.admission_probability,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    progress: Optional["ProgressReporter"] = None,
    store: Optional["RunStore"] = None,
    force: bool = False,
) -> Dict[str, Dict[float, PointEstimate]]:
    """Replicate every (protocol, rate) point across ``seeds``.

    The whole (protocol × rate × seed) grid expands to one plan and runs
    through the shared executor — a parallel sweep load-balances across
    all points at once, and with a ``store`` each replicated cell caches
    and resumes independently.
    """
    seeds = list(seeds)
    plan = confidence_plan(protocols, rates, base, seeds)
    results = execute_plan(
        plan,
        store=store,
        force=force,
        parallel=parallel,
        max_workers=max_workers,
        progress=progress,
    )
    by_cell = iter(results)
    out: Dict[str, Dict[float, PointEstimate]] = {}
    for proto in protocols:
        out[proto] = {}
        for rate in rates:
            runs = [next(by_cell) for _ in seeds]
            rate_c = canonical_rate(rate)
            out[proto][rate_c] = PointEstimate(
                protocol=proto,
                arrival_rate=rate_c,
                summary=summarize([metric(r) for r in runs]),
                pooled_successes=sum(r.admitted for r in runs),
                pooled_trials=sum(r.generated for r in runs),
                runs=tuple(runs),
            )
    return out


def compare_protocols(
    a: PointEstimate, b: PointEstimate
) -> float:
    """z statistic for admission(a) > admission(b) on pooled counts."""
    return two_proportion_z(
        a.pooled_successes, a.pooled_trials, b.pooled_successes, b.pooled_trials
    )


def confidence_table(
    estimates: Dict[str, Dict[float, PointEstimate]]
) -> str:
    """Mean ± half-width per point, one row per rate."""
    protocols = list(estimates)
    rates = sorted({r for series in estimates.values() for r in series})
    rows: List[List[object]] = []
    for rate in rates:
        row: List[object] = [rate]
        for proto in protocols:
            est = estimates[proto].get(rate)
            row.append(str(est.summary) if est else "-")
        rows.append(row)
    return format_table(["lambda", *protocols], rows, min_width=18)
