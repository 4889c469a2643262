"""Metrics: the per-run collector and the :class:`RunResult` it freezes."""

from .collector import MessageCounters, MetricsCollector, RunResult, TaskCounters

__all__ = ["MetricsCollector", "RunResult", "MessageCounters", "TaskCounters"]
