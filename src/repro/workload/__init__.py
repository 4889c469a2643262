"""Workload: arrival processes, task sizes, attacks, churn."""

from .arrivals import ArrivalGenerator, DeterministicArrivals, PoissonArrivals
from .attack import AttackConfig, AttackPlan
from .churn import ChurnEvent, ChurnSchedule, poisson_churn
from .sizes import ExponentialSizes

__all__ = [
    "ArrivalGenerator",
    "DeterministicArrivals",
    "PoissonArrivals",
    "AttackConfig",
    "AttackPlan",
    "ChurnEvent",
    "ChurnSchedule",
    "poisson_churn",
    "ExponentialSizes",
]
