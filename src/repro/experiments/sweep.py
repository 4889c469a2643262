"""Parameter sweeps over (protocol, arrival rate, seed).

Both drivers here are thin plan builders: they expand to an
:class:`~repro.experiments.plan.ExperimentPlan` and hand it to the
shared :func:`~repro.experiments.executor.execute_plan`, which supplies
serial/process-pool dispatch, live telemetry, and — when a
:class:`~repro.experiments.store.RunStore` is passed — content-addressed
caching with checkpoint/resume.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING

from ..metrics.collector import RunResult
from ..analysis.stats import summarize
from .config import ExperimentConfig
from .executor import execute_plan
from .plan import replication_plan, sweep_plan

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.telemetry import ProgressReporter
    from .store import RunStore

__all__ = ["run_sweep", "run_replications", "SweepResults"]

#: results keyed [protocol][arrival_rate] -> RunResult (single seed) or
#: list of RunResults (replications); rate keys are canonical
#: (:func:`~repro.experiments.store.canonical_rate`)
SweepResults = Dict[str, Dict[float, RunResult]]


def run_sweep(
    protocols: Sequence[str],
    rates: Sequence[float],
    base: ExperimentConfig,
    *,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    progress: Optional["ProgressReporter"] = None,
    store: Optional["RunStore"] = None,
    force: bool = False,
) -> SweepResults:
    """One run per (protocol, rate), all from ``base`` with a shared seed.

    A shared seed gives common random numbers across protocols: every
    protocol faces the *identical* arrival/size/placement sequence, so
    curve differences are protocol effects, not sampling noise — the same
    technique the paper uses ("for fair comparison purposes").

    ``progress`` (an :class:`~repro.obs.telemetry.ProgressReporter`)
    receives every completed run as results stream in — live telemetry
    for long sweeps; result values are unaffected.  ``store`` makes the
    sweep resumable: cached cells are served from disk, fresh cells are
    persisted as they finish, and ``force`` re-runs everything while
    refreshing the store.
    """
    plan = sweep_plan(protocols, rates, base)
    results = execute_plan(
        plan,
        store=store,
        force=force,
        parallel=parallel,
        max_workers=max_workers,
        progress=progress,
    )
    return plan.reduce(results)  # type: ignore[return-value]


def run_replications(
    cfg: ExperimentConfig,
    seeds: Iterable[int],
    *,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    progress: Optional["ProgressReporter"] = None,
    store: Optional["RunStore"] = None,
    force: bool = False,
) -> List[RunResult]:
    """Independent replications of one configuration across seeds."""
    plan = replication_plan(cfg, seeds)
    return execute_plan(
        plan,
        store=store,
        force=force,
        parallel=parallel,
        max_workers=max_workers,
        progress=progress,
    )


def replication_summary(results: Sequence[RunResult], confidence: float = 0.95):
    """Admission-probability summary across replications (mean ± hw)."""
    return summarize([r.admission_probability for r in results], confidence)
