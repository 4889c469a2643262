"""Live sweep telemetry.

Multi-hour sweeps used to be silent until the final table.  A
:class:`ProgressReporter` threaded into
:func:`repro.experiments.sweep.run_sweep` (or ``run_replications``)
prints one line per completed run — runs done / total, elapsed, ETA —
plus per-protocol rolling summaries of message rate and loss rate, the
two quantities the paper's figures track.  ``python -m repro.experiments
--observe`` wires it up on stderr so progress never contaminates the
result tables on stdout.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, TextIO

from ..metrics.collector import RunResult

__all__ = ["ProgressReporter", "ProtocolRollup"]


@dataclass
class ProtocolRollup:
    """Rolling per-protocol summary across completed runs."""

    runs: int = 0
    message_rate_sum: float = 0.0   # weighted messages per simulated second
    loss_rate_sum: float = 0.0      # (rejected + lost) / generated
    #: runs that generated at least one task — the loss-rate denominator.
    #: A run with zero arrivals has no loss rate at all; folding it into
    #: ``runs`` silently diluted the mean toward zero.
    loss_runs: int = 0
    admitted_sum: float = 0.0       # admission probability
    drops_sum: float = 0.0          # messages dropped (impairments/dead dst)
    retries_sum: float = 0.0        # recovery actions: HELP retries + fallbacks
    #: candidate-ranking quality: runs whose migrator attempted at least
    #: one first-choice negotiation (the misrank denominator), summed
    #: misrank rate and fallback depth over those runs.  Zero-attempt
    #: runs (nothing migrated) carry no ranking signal at all.
    ranking_runs: int = 0
    misrank_sum: float = 0.0
    fallback_depth_sum: float = 0.0

    def add(self, result: RunResult) -> None:
        self.runs += 1
        horizon = result.horizon or 1.0
        self.message_rate_sum += result.messages_total / horizon
        if result.generated:
            self.loss_rate_sum += (result.rejected + result.lost) / result.generated
            self.loss_runs += 1
        self.admitted_sum += result.admission_probability
        extra = result.extra
        self.drops_sum += extra.get("dropped_messages", 0.0)
        self.retries_sum += extra.get("help_retries", 0.0) + extra.get(
            "migration_fallbacks", 0.0
        )
        if extra.get("first_choice_attempts", 0.0):
            self.ranking_runs += 1
            self.misrank_sum += extra.get("misrank_rate", 0.0)
            self.fallback_depth_sum += extra.get("fallback_depth_mean", 0.0)

    @property
    def message_rate(self) -> float:
        return self.message_rate_sum / self.runs if self.runs else 0.0

    @property
    def loss_rate(self) -> float:
        """Mean loss rate over the runs that had arrivals at all."""
        return self.loss_rate_sum / self.loss_runs if self.loss_runs else 0.0

    @property
    def admission(self) -> float:
        return self.admitted_sum / self.runs if self.runs else 0.0

    @property
    def drops(self) -> float:
        """Mean dropped messages per run (0 on a clean network)."""
        return self.drops_sum / self.runs if self.runs else 0.0

    @property
    def retries(self) -> float:
        """Mean protocol recovery actions per run."""
        return self.retries_sum / self.runs if self.runs else 0.0

    @property
    def misrank_rate(self) -> float:
        """Mean misrank rate over runs that attempted migrations."""
        return self.misrank_sum / self.ranking_runs if self.ranking_runs else 0.0

    @property
    def fallback_depth(self) -> float:
        """Mean granted-fallback depth over runs that attempted migrations."""
        return (
            self.fallback_depth_sum / self.ranking_runs
            if self.ranking_runs
            else 0.0
        )


class ProgressReporter:
    """Streams sweep progress; safe to share across serial/parallel sweeps.

    Parameters
    ----------
    total:
        Planned number of runs (drives the ETA).
    stream:
        Output file object (default: stderr, so stdout tables stay clean).
    clock:
        Injectable monotonic clock (tests pass a fake).
    min_interval:
        Suppress per-run lines arriving closer together than this many
        wall seconds (0 = print every run).  Milestone runs (first, last)
        always print.
    """

    def __init__(
        self,
        total: int,
        *,
        stream: Optional[TextIO] = None,
        clock: Callable[[], float] = time.monotonic,
        min_interval: float = 0.0,
    ) -> None:
        if total < 1:
            raise ValueError("total must be >= 1")
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.min_interval = float(min_interval)
        self.completed = 0
        self.cached = 0
        self.rollups: Dict[str, ProtocolRollup] = {}
        self._started_at: Optional[float] = None
        self._last_line_at = -float("inf")

    # Sweep-facing -------------------------------------------------------

    def update(self, cfg: object, result: RunResult, *, cached: bool = False) -> None:
        """One run finished; ``cfg`` is its ExperimentConfig.

        ``cached`` marks a run served from a
        :class:`~repro.experiments.store.RunStore` instead of simulated —
        it still counts toward progress and the rollups (the sweep's
        *answer* includes it), but is tallied separately so resumed
        sweeps report how much work the store skipped.
        """
        if self._started_at is None:
            self._started_at = self.clock()
        self.completed += 1
        if cached:
            self.cached += 1
        protocol = str(getattr(cfg, "protocol", result.params.get("protocol", "?")))
        rollup = self.rollups.setdefault(protocol, ProtocolRollup())
        rollup.add(result)

        now = self.clock()
        milestone = self.completed in (1, self.total)
        if not milestone and (now - self._last_line_at) < self.min_interval:
            return
        self._last_line_at = now
        self.stream.write(self._line(cfg, result, protocol, now) + "\n")
        self.stream.flush()

    # Rendering ----------------------------------------------------------

    def _line(self, cfg: object, result: RunResult, protocol: str, now: float) -> str:
        elapsed = now - (self._started_at if self._started_at is not None else now)
        # ETA projects per-*simulated*-run cost: cache hits are ~free, so
        # counting them in the denominator makes a resumed sweep promise
        # hours of work it will serve from the store in seconds (a 100%-
        # cache resume projects 0, not elapsed-scaled nonsense).
        simulated = self.completed - self.cached
        eta = (
            elapsed / simulated * (self.total - self.completed)
            if simulated > 0
            else 0.0
        )
        rate = getattr(cfg, "arrival_rate", result.params.get("lambda", "?"))
        rollup = self.rollups[protocol]
        # drop/retry columns only appear once the network misbehaves, so
        # clean-sweep output stays exactly as before
        impaired = ""
        if rollup.drops_sum > 0 or rollup.retries_sum > 0:
            impaired = f"drops={rollup.drops:.1f} retries={rollup.retries:.1f} "
        # misrank column only appears once a run actually misranks, so
        # perfect-ranking (and ranking-less) sweep output stays as before
        ranking = ""
        if rollup.misrank_sum > 0:
            ranking = f"misrank={rollup.misrank_rate:.3f} "
        # cache column only appears once a store serves a hit, so
        # store-less sweep output stays exactly as before
        cache = f"cached={self.cached} " if self.cached else ""
        return (
            f"[obs] {self.completed}/{self.total} "
            f"{protocol} lambda={rate} "
            f"adm={result.admission_probability:.3f} "
            f"msg/s={rollup.message_rate:.1f} "
            f"loss={rollup.loss_rate:.3f} "
            f"{impaired}"
            f"{ranking}"
            f"{cache}"
            f"elapsed={elapsed:.1f}s eta={eta:.1f}s"
        )

    def summary(self) -> str:
        """Final per-protocol rollup table."""
        from ..analysis.report import format_table

        # the ranking columns join the table only when some run produced
        # a ranking signal, keeping ranking-less sweep output unchanged
        with_ranking = any(r.ranking_runs for r in self.rollups.values())
        rows = []
        for proto, r in sorted(self.rollups.items()):
            row = [proto, r.runs, r.admission, r.message_rate, r.loss_rate]
            if with_ranking:
                row += [r.misrank_rate, r.fallback_depth]
            rows.append(row)
        header = (
            f"[obs] sweep complete: {self.completed}/{self.total} runs"
        )
        if self.cached:
            header += f" ({self.cached} served from store)"
        if not rows:
            return header
        columns = ["protocol", "runs", "adm", "msg/s", "loss"]
        if with_ranking:
            columns += ["misrank", "fb-depth"]
        return header + "\n" + format_table(columns, rows)
