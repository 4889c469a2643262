"""Experiment harness: configs, runner, plans, store, sweeps, figures."""

from .config import PAPER_LAMBDAS, ExperimentConfig, paper_config
from .confidence import confidence_sweep, confidence_table
from .executor import CellExecutionError, execute_plan
from .figures import (
    FigureResult,
    fig5_admission_probability,
    fig6_message_overhead,
    fig7_cost_per_task,
    fig8_migration_rate,
    fig9_testbed_admission,
)
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
    "FigureResult",
    "fig5_admission_probability",
    "fig6_message_overhead",
    "fig7_cost_per_task",
    "fig8_migration_rate",
    "fig9_testbed_admission",
    "System",
    "build_system",
    "run_experiment",
    "run_replications",
    "run_sweep",
]
