"""Workload: the arrival process, task sizes, attacks, churn."""

from .arrivals import ArrivalGenerator, PoissonArrivals
from .attack import AttackConfig, AttackPlan
from .churn import ChurnEvent, ChurnSchedule, poisson_churn
from .sizes import ExponentialSizes

__all__ = [
    "ArrivalGenerator",
    "PoissonArrivals",
    "AttackConfig",
    "AttackPlan",
    "ChurnEvent",
    "ChurnSchedule",
    "poisson_churn",
    "ExponentialSizes",
]
