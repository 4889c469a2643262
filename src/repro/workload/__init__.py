"""Workload: arrival processes, task sizes, attacks, churn."""

from .arrivals import (
    ArrivalGenerator,
    ArrivalProcess,
    DeterministicArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from .attack import AttackPlan, RandomFailures, RegionAttack, SweepAttack
from .churn import ChurnEvent, ChurnSchedule, poisson_churn
from .sizes import ExponentialSizes

__all__ = [
    "ArrivalGenerator",
    "ArrivalProcess",
    "DeterministicArrivals",
    "PoissonArrivals",
    "TraceArrivals",
    "AttackPlan",
    "RandomFailures",
    "RegionAttack",
    "SweepAttack",
    "ChurnEvent",
    "ChurnSchedule",
    "poisson_churn",
    "ExponentialSizes",
]
