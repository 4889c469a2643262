"""Node substrate: tasks, work queues, monitors, hosts."""

from .host import Host
from .monitor import ThresholdMonitor
from .queue import QueueFull, WorkQueue
from .resources import (
    BANDWIDTH,
    CPU,
    SECURITY,
    ResourceKind,
    ResourcePool,
    ResourceSpec,
)
from .task import Task, TaskOutcome, TaskStatus

__all__ = [
    "Host",
    "ThresholdMonitor",
    "QueueFull",
    "WorkQueue",
    "BANDWIDTH",
    "CPU",
    "SECURITY",
    "ResourceKind",
    "ResourcePool",
    "ResourceSpec",
    "Task",
    "TaskOutcome",
    "TaskStatus",
]
