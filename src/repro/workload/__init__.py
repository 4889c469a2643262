"""Workload: arrival processes, task sizes, attacks, churn."""

from .arrivals import (
    ArrivalGenerator,
    ArrivalProcess,
    DeterministicArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from .attack import AttackConfig, AttackPlan, RandomFailures, RegionAttack, SweepAttack
from .churn import ChurnEvent, ChurnSchedule, poisson_churn
from .sizes import ExponentialSizes

__all__ = [
    "ArrivalGenerator",
    "ArrivalProcess",
    "DeterministicArrivals",
    "PoissonArrivals",
    "TraceArrivals",
    "AttackConfig",
    "AttackPlan",
    "RandomFailures",
    "RegionAttack",
    "SweepAttack",
    "ChurnEvent",
    "ChurnSchedule",
    "poisson_churn",
    "ExponentialSizes",
]
