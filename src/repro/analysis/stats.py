"""Statistical helpers for simulation output analysis.

Simulation estimates (admission probability, overhead) come from finite,
autocorrelated runs.  This module provides the standard machinery:

* warm-up truncation,
* batch-means confidence intervals (valid under autocorrelation),
* replication summaries across seeds,
* a two-proportion z-test used by the figure-shape assertions
  ("REALTOR's admission probability is not worse than pure pull's").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "SummaryStats",
    "summarize",
    "batch_means_ci",
    "proportion_ci",
    "two_proportion_z",
]

# two-sided critical values for the normal approximation
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


@dataclass(frozen=True)
class SummaryStats:
    """Replication summary: mean with a confidence half-width."""

    n: int
    mean: float
    std: float
    half_width: float
    confidence: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g} (n={self.n})"


def _z_for(confidence: float) -> float:
    try:
        return _Z[confidence]
    except KeyError:
        raise ValueError(f"confidence must be one of {sorted(_Z)}") from None


def summarize(values: Iterable[float], confidence: float = 0.95) -> SummaryStats:
    """Mean ± z * s/sqrt(n) across independent replications."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("no values to summarize")
    mean = float(arr.mean())
    if arr.size == 1:
        return SummaryStats(1, mean, 0.0, float("inf"), confidence)
    std = float(arr.std(ddof=1))
    hw = _z_for(confidence) * std / math.sqrt(arr.size)
    return SummaryStats(int(arr.size), mean, std, hw, confidence)


def batch_means_ci(
    samples: Sequence[float],
    batches: int = 10,
    confidence: float = 0.95,
    warmup_fraction: float = 0.1,
) -> SummaryStats:
    """Batch-means CI for a single autocorrelated run.

    The first ``warmup_fraction`` of samples is discarded (initialisation
    bias), the remainder split into ``batches`` contiguous batches whose
    means are treated as approximately independent.
    """
    arr = np.asarray(samples, dtype=float)
    start = int(arr.size * warmup_fraction)
    arr = arr[start:]
    if arr.size < batches * 2:
        raise ValueError(
            f"need at least {batches * 2} post-warmup samples, have {arr.size}"
        )
    usable = (arr.size // batches) * batches
    means = arr[:usable].reshape(batches, -1).mean(axis=1)
    return summarize(means, confidence)


def proportion_ci(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float, float]:
    """Wilson score interval ``(p_hat, low, high)`` for a proportion.

    Used for admission probabilities, where counts can be near the 0/1
    boundary at extreme loads and the Wald interval misbehaves.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    z = _z_for(confidence)
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    margin = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    low = max(0.0, centre - margin)
    high = min(1.0, centre + margin)
    # At the boundaries the Wilson endpoints are analytically exact
    # (low = 0 when s = 0, high = 1 when s = n); snap float fuzz.
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return p, low, high


def two_proportion_z(s1: int, n1: int, s2: int, n2: int) -> float:
    """z statistic for H0: p1 == p2 (pooled).  Positive when p1 > p2."""
    if n1 <= 0 or n2 <= 0:
        raise ValueError("sample sizes must be positive")
    p1, p2 = s1 / n1, s2 / n2
    pooled = (s1 + s2) / (n1 + n2)
    var = pooled * (1 - pooled) * (1 / n1 + 1 / n2)
    if var == 0:
        return 0.0
    return (p1 - p2) / math.sqrt(var)

