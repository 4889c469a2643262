"""Declarative experiment plans.

The paper's evaluation is one big grid — (protocol × λ × seed ×
fault-scenario) — and every driver in this package used to hand-roll its
own fan-out loop over it.  An :class:`ExperimentPlan` makes the grid a
value instead: a frozen, ordered tuple of :class:`PlanCell`\\ s, each one
fully-specified run (its attack included as ``config.attack``) under a
key unique within the plan.

Because a plan is pure data, one shared executor
(:func:`~repro.experiments.executor.execute_plan`) runs *any* of them —
serially or over a process pool, against a content-addressed
:class:`~repro.experiments.store.RunStore` for checkpoint/resume — and
returns the results keyed by cell.  Every driver (``run_sweep``,
``confidence_sweep``, the studies of ``ablations.STUDIES``) is a
:func:`grid_plan` call plus whatever shape its callers want.

Arrival-rate keys are canonicalised exactly once, here, at expansion
time (:func:`~repro.experiments.store.canonical_rate`), so store digests
and result-dict lookups agree on what ``3.0`` is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

from .config import ExperimentConfig
from .store import canonical_rate

__all__ = ["PlanCell", "ExperimentPlan", "sweep_plan", "grid_plan"]


@dataclass(frozen=True)
class PlanCell:
    """One fully-specified run of the grid.

    ``key`` is the cell's identity *within its plan* (e.g. ``(protocol,
    rate)`` for a sweep) — the executor's results are keyed by it.
    Cells are plain frozen dataclasses: picklable for process pools and
    canonically serialisable for store digests.
    """

    key: Tuple[object, ...]
    config: ExperimentConfig


@dataclass(frozen=True)
class ExperimentPlan:
    """A named, ordered grid of runs; no two cells share a key."""

    name: str
    cells: Tuple[PlanCell, ...]

    def __post_init__(self) -> None:
        seen = set()
        for cell in self.cells:
            if cell.key in seen:
                raise ValueError(
                    f"plan {self.name!r} has duplicate cell key {cell.key!r}"
                )
            seen.add(cell.key)

    def __iter__(self) -> Iterator[PlanCell]:
        return iter(self.cells)


def grid_plan(
    name: str,
    items: Iterable[Tuple[object, ExperimentConfig]],
) -> ExperimentPlan:
    """A grid of ``(key, config)`` items, in item order.

    A scalar key is stored as a 1-tuple.  Each study enumerates its own
    axis (α/β pairs, thresholds, topologies, loss rates...) this way.
    """
    return ExperimentPlan(name, tuple(
        PlanCell(key=key if isinstance(key, tuple) else (key,), config=config)
        for key, config in items
    ))


def sweep_plan(
    protocols: Sequence[str],
    rates: Sequence[float],
    base: ExperimentConfig,
) -> ExperimentPlan:
    """The classic (protocol × rate) grid sharing ``base``'s seed, keyed
    ``(protocol, rate)`` with canonical rates."""
    return grid_plan("sweep", (
        ((proto, rate), base.with_(protocol=proto, arrival_rate=rate))
        for proto in protocols
        for rate in map(canonical_rate, rates)
    ))
