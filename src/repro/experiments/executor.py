"""The one executor every experiment driver runs through.

:func:`execute_plan` takes an :class:`~repro.experiments.plan.ExperimentPlan`
and returns its results keyed by cell key, in cell order, with four
orthogonal behaviours composed on top of the bare cell loop:

* **serial / process-pool dispatch** — runs are single-threaded pure
  Python, so processes are the right fan-out; chunked ``pool.map`` keeps
  results in submission order, so serial and parallel execution return
  identical mappings (pinned by the golden-trace equivalence tests).
* **store consultation** — with a :class:`~repro.experiments.store.RunStore`,
  each cell's digest is checked first; hits skip simulation entirely and
  misses are persisted the moment they finish.  An interrupted sweep
  therefore resumes from its last completed cell, and editing one grid
  point re-runs only that point.
* **telemetry** — a :class:`~repro.obs.telemetry.ProgressReporter`
  receives every completion, with cache hits flagged so the rollups can
  report skip counts.
* **failure containment** — a cell that raises (in either dispatch mode)
  never hangs the sweep and never silently drops: every *other* cell
  still executes and lands in the store, then a
  :class:`CellExecutionError` propagates naming the failing
  ``(protocol, rate, seed)`` cell.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, TYPE_CHECKING

from ..metrics.collector import RunResult
from .plan import ExperimentPlan, PlanCell
from .runner import run_experiment

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.telemetry import ProgressReporter
    from .store import RunStore

__all__ = ["execute_plan", "run_cell", "CellExecutionError"]


class CellExecutionError(RuntimeError):
    """One or more plan cells failed; carries every (cell, message) pair.

    ``dumps`` aligns with ``failures``: when the failing run had a
    flight recorder enabled (``cfg.obs``), its crash dump — last-N
    kernel events plus registry snapshots, with cell identity — rides
    along as a plain dict; ``None`` otherwise.
    """

    def __init__(
        self,
        failures: Sequence[Tuple[PlanCell, str]],
        dumps: Optional[Sequence[Optional[dict]]] = None,
    ) -> None:
        cell, message = failures[0]
        cfg = cell.config
        text = (
            f"experiment cell (protocol={cfg.protocol!r}, "
            f"rate={cfg.arrival_rate!r}, seed={cfg.seed}) failed: {message}"
        )
        if len(failures) > 1:
            text += f" [+{len(failures) - 1} more failed cell(s)]"
        self.dumps = list(dumps) if dumps is not None else [None] * len(failures)
        attached = sum(1 for d in self.dumps if d is not None)
        if attached:
            text += f" [flight dump attached for {attached} cell(s)]"
        super().__init__(text)
        self.failures = list(failures)


def run_cell(cell: PlanCell) -> RunResult:
    """Execute one cell (the pool's entry point)."""
    return run_experiment(cell.config)


class _CellOutcome(NamedTuple):
    """Picklable worker verdict: result on success, else the error text
    (plus the flight-recorder dump when the failing run carried one)."""

    index: int
    result: Optional[RunResult]
    error: Optional[str]
    dump: Optional[dict] = None


def _run_indexed(job: Tuple[int, PlanCell]) -> _CellOutcome:
    index, cell = job
    try:
        return _CellOutcome(index, run_cell(cell), None)
    except Exception as exc:  # contained: reported via CellExecutionError
        return _CellOutcome(
            index,
            None,
            f"{type(exc).__name__}: {exc}",
            getattr(exc, "flight_dump", None),
        )


def execute_plan(
    plan: ExperimentPlan,
    *,
    store: Optional["RunStore"] = None,
    force: bool = False,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    progress: Optional["ProgressReporter"] = None,
) -> Dict[Tuple[object, ...], RunResult]:
    """Run ``plan``; results keyed by cell key, in cell order (see module docs)."""
    cells = plan.cells
    results: List[Optional[RunResult]] = [None] * len(cells)
    digests: List[Optional[str]] = [None] * len(cells)
    pending: List[int] = []

    for i, cell in enumerate(cells):
        if store is not None:
            digests[i] = store.digest(cell.config)
            if not force:
                cached = store.get(digests[i])
                if cached is not None:
                    results[i] = cached
                    if progress is not None:
                        progress.update(cell.config, cached, cached=True)
                    continue
        pending.append(i)

    failures: List[Tuple[PlanCell, str]] = []
    failure_dumps: List[Optional[dict]] = []

    def finish(outcome: _CellOutcome) -> None:
        if outcome.error is not None:
            failures.append((cells[outcome.index], outcome.error))
            failure_dumps.append(outcome.dump)
            return
        results[outcome.index] = outcome.result
        if store is not None:
            store.put(digests[outcome.index], cells[outcome.index].config, outcome.result)
        if progress is not None:
            progress.update(cells[outcome.index].config, outcome.result)

    jobs = [(i, cells[i]) for i in pending]
    if not parallel or len(jobs) <= 1:
        for job in jobs:
            finish(_run_indexed(job))
    elif jobs:
        workers = max_workers or min(len(jobs), os.cpu_count() or 1)
        # Chunked dispatch: large (protocol x rate x seed) grids ship
        # several cells per IPC round-trip instead of one, amortising
        # pickling and pool scheduling.  ~4 chunks per worker keeps the
        # tail balanced when run times differ across the grid.
        # ``pool.map`` yields lazily and in submission order, so results
        # stream into the store/reporter as chunks complete and serial
        # and parallel sweeps stay interchangeable.
        chunk = max(1, len(jobs) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for outcome in pool.map(_run_indexed, jobs, chunksize=chunk):
                finish(outcome)

    if store is not None:
        store.flush()
    if failures:
        raise CellExecutionError(failures, dumps=failure_dumps)
    return {cell.key: res for cell, res in zip(cells, results)}
