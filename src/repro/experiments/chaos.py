"""Chaos harness: attacks composed with network impairments.

The survivability figures stress the *node* fault model; this module
stresses the *message* fault model on top of it — the missing scenario
class for a paper whose premise is operating through degradation.  A
:func:`loss_sweep` runs the same seeded scenario (``base.attack``, a
:class:`~repro.workload.attack.AttackConfig`, if any) across a grid of
per-link loss rates (0–20% by default) and reports how admission, task
loss and the protocols' defensive counters (HELP retries, migration
fallbacks) degrade.

Everything is deterministic per seed: the attack plan comes from the
kernel's named ``"attack"`` stream, impairment draws from the
transport's named ``"impairments"`` stream, and each loss rate is a
plain config cell run through the shared
:func:`~repro.experiments.executor.execute_plan` — so chaos grids get
serial==parallel determinism, store caching and resume exactly like the
clean sweeps.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from ..metrics.collector import RunResult
from ..network.impairments import ImpairmentConfig
from .config import ExperimentConfig
from .executor import execute_plan
from .plan import ExperimentPlan, grid_plan
from .store import canonical_rate

if TYPE_CHECKING:  # pragma: no cover
    from .store import RunStore

__all__ = ["loss_sweep", "loss_sweep_plan", "degradation_table", "DEFAULT_LOSS_RATES"]

#: the graceful-degradation grid: clean baseline up to a harsh 20%
DEFAULT_LOSS_RATES: Tuple[float, ...] = (0.0, 0.01, 0.02, 0.05, 0.10, 0.20)


def loss_sweep_plan(
    base: ExperimentConfig,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
) -> ExperimentPlan:
    """The loss-rate grid as a plan (keys: canonical loss rates)."""
    template = base.impairments if base.impairments is not None else ImpairmentConfig()
    return grid_plan("loss-sweep", [
        (rate, base.with_(impairments=template.with_(loss_rate=rate)))
        for rate in map(canonical_rate, loss_rates)
    ])


def loss_sweep(
    base: ExperimentConfig,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    *,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    store: Optional["RunStore"] = None,
    force: bool = False,
) -> Dict[float, RunResult]:
    """The same scenario (``base.attack`` included) across a grid of
    per-link loss rates.

    ``base.impairments`` (or a fresh :class:`ImpairmentConfig`) is the
    template — jitter/duplication/reorder knobs carry across the sweep
    and only ``loss_rate`` varies.  Rate ``0.0`` with no other knobs
    leaves the impairment hook uninstalled entirely: the clean baseline
    is byte-identical to a non-chaos run of the same config.
    """
    plan = loss_sweep_plan(base, loss_rates)
    results = execute_plan(
        plan,
        store=store,
        force=force,
        parallel=parallel,
        max_workers=max_workers,
    )
    return plan.reduce(results)  # type: ignore[return-value]


def degradation_table(results: Dict[float, RunResult]) -> str:
    """Render a loss-rate sweep as the graceful-degradation table."""
    from ..analysis.report import format_table

    rows = []
    for rate in sorted(results):
        res = results[rate]
        extra = res.extra
        rows.append(
            [
                f"{rate:.0%}",
                res.admission_probability,
                res.lost,
                extra.get("impairment_dropped", 0.0),
                extra.get("help_retries", 0.0),
                extra.get("migration_fallbacks", 0.0),
            ]
        )
    return format_table(
        ["loss", "adm", "tasks lost", "msgs dropped", "help retries", "fallbacks"],
        rows,
    )
