"""Declarative experiment plans.

The paper's evaluation is one big grid — (protocol × λ × seed ×
fault-scenario) — and every driver in this package used to hand-roll its
own fan-out loop over it.  An :class:`ExperimentPlan` makes the grid a
value instead: a frozen, ordered tuple of :class:`PlanCell`\\ s (each one
fully-specified run, its attack included as ``config.attack``) plus a reducer
that shapes the flat result list back into whatever the driver's callers
expect (``SweepResults`` nested dicts, replication lists, ablation
tables).

Because a plan is pure data, one shared executor
(:func:`~repro.experiments.executor.execute_plan`) can run *any* of
them — serially or over a process pool, against a content-addressed
:class:`~repro.experiments.store.RunStore` for checkpoint/resume — and
every driver (``run_sweep``, ``run_replications``, ``loss_sweep``, the
ablations, ``confidence_sweep``) is now a thin plan builder.

Arrival-rate keys are canonicalised exactly once, here, at expansion
time (:func:`~repro.experiments.store.canonical_rate`), so store digests
and result-dict lookups agree on what ``3.0`` is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..metrics.collector import RunResult
from .config import ExperimentConfig
from .store import canonical_rate

__all__ = [
    "PlanCell",
    "ExperimentPlan",
    "sweep_plan",
    "replication_plan",
    "grid_plan",
    "confidence_plan",
]

#: shapes a flat, plan-ordered result list into the driver's output
Reducer = Callable[["ExperimentPlan", Sequence[RunResult]], object]


@dataclass(frozen=True)
class PlanCell:
    """One fully-specified run of the grid.

    ``key`` is the cell's identity *within its plan* (e.g. ``(protocol,
    rate)`` for a sweep, ``(seed,)`` for replications) — reducers index
    by it.  Cells are plain frozen dataclasses: picklable for process
    pools and canonically serialisable for store digests.
    """

    key: Tuple[object, ...]
    config: ExperimentConfig


@dataclass(frozen=True)
class ExperimentPlan:
    """A named, ordered grid of runs plus the shape of its answer."""

    name: str
    cells: Tuple[PlanCell, ...]
    reducer: Optional[Reducer] = None

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[PlanCell]:
        return iter(self.cells)

    def configs(self) -> List[ExperimentConfig]:
        """The expanded configs, in execution order."""
        return [cell.config for cell in self.cells]

    def keys(self) -> List[Tuple[object, ...]]:
        return [cell.key for cell in self.cells]

    def reduce(self, results: Sequence[RunResult]) -> object:
        """Shape executor output; identity (a list) without a reducer."""
        if len(results) != len(self.cells):
            raise ValueError(
                f"plan {self.name!r} expects {len(self.cells)} results, "
                f"got {len(results)}"
            )
        if self.reducer is None:
            return list(results)
        return self.reducer(self, results)


# Builders ------------------------------------------------------------------


def sweep_plan(
    protocols: Sequence[str],
    rates: Sequence[float],
    base: ExperimentConfig,
) -> ExperimentPlan:
    """The classic (protocol × rate) grid sharing ``base``'s seed.

    A shared seed gives common random numbers across protocols: every
    protocol faces the *identical* arrival/size/placement sequence, so
    curve differences are protocol effects, not sampling noise — the same
    technique the paper uses ("for fair comparison purposes").

    Reduces to ``SweepResults``: ``[protocol][rate] -> RunResult`` with
    canonical rate keys.
    """
    protocols = list(protocols)
    cells = tuple(
        PlanCell(
            key=(proto, rate),
            config=base.with_(protocol=proto, arrival_rate=rate),
        )
        for proto in protocols
        for rate in (canonical_rate(r) for r in rates)
    )

    def reduce(plan: ExperimentPlan, results: Sequence[RunResult]) -> object:
        out: Dict[str, Dict[float, RunResult]] = {proto: {} for proto in protocols}
        for cell, res in zip(plan.cells, results):
            proto, rate = cell.key
            out[proto][rate] = res
        return out

    return ExperimentPlan("sweep", cells, reduce)


def replication_plan(
    cfg: ExperimentConfig, seeds: Iterable[int]
) -> ExperimentPlan:
    """Independent replications of one configuration across seeds."""
    cells = tuple(
        PlanCell(key=(int(seed),), config=cfg.with_(seed=int(seed)))
        for seed in seeds
    )
    if not cells:
        raise ValueError("no seeds given")
    return ExperimentPlan("replications", cells, None)


def grid_plan(
    name: str,
    items: Iterable[Tuple[object, ExperimentConfig]],
) -> ExperimentPlan:
    """A free-form grid of ``(key, config)`` items.

    The ablations use this — each study enumerates its own axis (α/β
    pairs, thresholds, topologies, attack severities...) and reduces to
    a ``{key: RunResult}`` mapping in item order.
    """
    cells = tuple(
        PlanCell(key=key if isinstance(key, tuple) else (key,), config=config)
        for key, config in items
    )

    def reduce(plan: ExperimentPlan, results: Sequence[RunResult]) -> object:
        out: Dict[object, RunResult] = {}
        for cell, res in zip(plan.cells, results):
            key = cell.key[0] if len(cell.key) == 1 else cell.key
            out[key] = res
        return out

    return ExperimentPlan(name, cells, reduce)


def confidence_plan(
    protocols: Sequence[str],
    rates: Sequence[float],
    base: ExperimentConfig,
    seeds: Sequence[int],
) -> ExperimentPlan:
    """The full (protocol × rate × seed) replication grid, one plan.

    Flattening the three loops into a single plan lets the pool see the
    whole grid at once (better tail balance than per-point pools) and
    gives each replicated point its own store cell.
    """
    if not seeds:
        raise ValueError("no seeds given")
    cells = tuple(
        PlanCell(
            key=(proto, rate, int(seed)),
            config=base.with_(protocol=proto, arrival_rate=rate, seed=int(seed)),
        )
        for proto in protocols
        for rate in (canonical_rate(r) for r in rates)
        for seed in seeds
    )
    return ExperimentPlan("confidence", cells, None)
