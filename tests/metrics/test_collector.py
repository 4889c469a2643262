"""Unit tests for the metrics collector and RunResult."""

import pytest

from repro.metrics.collector import MetricsCollector
from repro.node.task import Task, TaskOutcome


def task(outcome=None, size=5.0):
    t = Task(size=size, arrival_time=0.0, origin=0)
    if outcome is not None:
        t.mark_admitted(1, 1.0, outcome)
    return t


class TestCollector:
    def test_cost_hook(self):
        mc = MetricsCollector()
        mc.on_cost("HELP", 40.0)
        mc.on_cost("PLEDGE", 4.0)
        assert mc.messages.total() == 44.0

    def test_task_lifecycle_counts(self):
        mc = MetricsCollector()
        for _ in range(3):
            mc.task_generated()
        mc.task_admitted(task(TaskOutcome.LOCAL))
        mc.task_admitted(task(TaskOutcome.MIGRATED))
        mc.task_rejected(task())
        assert mc.tasks.admitted == 2
        assert mc.tasks.rejected == 1

    def test_unexpected_outcome_rejected(self):
        mc = MetricsCollector()
        with pytest.raises(ValueError):
            mc.task_admitted(task())  # outcome None

    def test_response_time_tracking(self):
        mc = MetricsCollector()
        t = task(TaskOutcome.LOCAL)
        t.mark_completed(6.0)
        mc.task_completed(t)
        assert mc.response_time_mean == 6.0

    def test_migration_and_evacuation_counts(self):
        mc = MetricsCollector()
        mc.migration_attempt(True)
        mc.migration_attempt(False)
        mc.evacuation(task(), False)
        assert mc.tasks.migration_attempts == 2
        assert mc.tasks.migration_failures == 1
        assert mc.tasks.evacuation_failures == 1


class TestRunResult:
    def build(self):
        mc = MetricsCollector()
        for _ in range(10):
            mc.task_generated()
        for _ in range(6):
            mc.task_admitted(task(TaskOutcome.LOCAL))
        for _ in range(2):
            mc.task_admitted(task(TaskOutcome.MIGRATED))
        for _ in range(2):
            mc.task_rejected(task())
        mc.on_cost("HELP", 400.0)
        return mc.result({"protocol": "realtor", "lambda": 5.0}, horizon=100.0)

    def test_derived_metrics(self):
        r = self.build()
        assert r.admitted == 8
        assert r.admission_probability == pytest.approx(0.8)
        assert r.migration_rate == pytest.approx(0.25)
        assert r.messages_per_admitted == pytest.approx(50.0)
        assert r.messages_for("HELP") == 400.0
        assert r.messages_for("GHOST") == 0.0

    def test_params_embedded(self):
        r = self.build()
        assert r.params["protocol"] == "realtor"

    def test_conservation_enforced_at_result(self):
        mc = MetricsCollector()
        mc.task_admitted(task(TaskOutcome.LOCAL))  # admitted > generated
        with pytest.raises(AssertionError):
            mc.result({}, horizon=1.0)

    def test_no_admissions_inf_cost(self):
        mc = MetricsCollector()
        mc.task_generated()
        mc.task_rejected(task())
        r = mc.result({}, horizon=1.0)
        assert r.messages_per_admitted == float("inf")
