"""Shared fixtures for the benchmark suite.

The four Section 5 figures are different projections of ONE sweep
(5 protocols x 10 arrival rates), so the sweep runs once per session and
every figure benchmark reuses it.  ``REPRO_BENCH_HORIZON`` scales the
simulated seconds per run (default 2000; the paper-scale value is 10000
— the shapes are stable from ~1000 up, only absolute message totals
scale).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import DEFAULT_RATES
from repro.experiments.sweep import run_sweep
from repro.protocols.registry import PAPER_PROTOCOLS

BENCH_HORIZON = float(os.environ.get("REPRO_BENCH_HORIZON", "2000"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))


@pytest.fixture(scope="session")
def paper_sweep():
    """The full Section 5 sweep: [protocol][lambda] -> RunResult."""
    base = ExperimentConfig(horizon=BENCH_HORIZON, seed=BENCH_SEED)
    return run_sweep(
        PAPER_PROTOCOLS, list(DEFAULT_RATES), base, parallel=True
    )
