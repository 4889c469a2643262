"""Experiment harness: configs, runner, plans, store, sweeps, figures."""

from .config import PAPER_LAMBDAS, ExperimentConfig, paper_config
from .confidence import confidence_sweep, confidence_table
from .executor import CellExecutionError, execute_plan
from .figures import FIGURES, FigureResult, run_figure
from .plan import (
    ExperimentPlan,
    PlanCell,
    confidence_plan,
    grid_plan,
    replication_plan,
    sweep_plan,
)
from .runner import System, build_system, run_experiment
from .store import RunStore, config_digest
from .sweep import run_replications, run_sweep

__all__ = [
    "PAPER_LAMBDAS",
    "ExperimentConfig",
    "paper_config",
    "confidence_sweep",
    "confidence_table",
    "CellExecutionError",
    "execute_plan",
    "ExperimentPlan",
    "PlanCell",
    "confidence_plan",
    "grid_plan",
    "replication_plan",
    "sweep_plan",
    "RunStore",
    "config_digest",
    "FIGURES",
    "FigureResult",
    "run_figure",
    "System",
    "build_system",
    "run_experiment",
    "run_replications",
    "run_sweep",
]
