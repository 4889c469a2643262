"""Unit tests for the collector's message and task counters."""

import pytest

from repro.metrics.collector import MessageCounters, MetricsCollector, TaskCounters


class TestMessageCounters:
    def test_add_accumulates_by_kind(self):
        mc = MessageCounters()
        mc.add("HELP", 40.0)
        mc.add("HELP", 40.0)
        mc.add("PLEDGE", 4.0)
        assert mc.by_kind == {"HELP": 80.0, "PLEDGE": 4.0}
        assert mc.total() == 84.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            MessageCounters().add("x", -1.0)

    def test_snapshot_is_copy(self):
        mc = MessageCounters()
        mc.add("x", 1.0)
        snap = mc.snapshot()
        snap["x"] = 99.0
        assert mc.by_kind["x"] == 1.0


class TestTaskCounters:
    def test_admission_probability(self):
        tc = TaskCounters(generated=10, admitted_local=6, admitted_migrated=2,
                          rejected=2)
        assert tc.admitted == 8
        assert tc.admission_probability == pytest.approx(0.8)

    def test_migration_rate(self):
        tc = TaskCounters(generated=10, admitted_local=6, admitted_migrated=2)
        assert tc.migration_rate == pytest.approx(0.25)

    def test_zero_denominators(self):
        tc = TaskCounters()
        assert tc.admission_probability == 0.0
        assert tc.migration_rate == 0.0

    # Fig 7's cost per admitted task is RunResult.messages_per_admitted,
    # frozen from these counters

    def test_cost_per_admitted(self):
        mc = MetricsCollector()
        mc.tasks = TaskCounters(generated=4, admitted_local=2)
        mc.on_cost("x", 100.0)
        assert mc.result({}, horizon=1.0).messages_per_admitted == 50.0

    def test_cost_per_admitted_no_admissions(self):
        mc = MetricsCollector()
        mc.tasks = TaskCounters(generated=4, rejected=4)
        assert mc.result({}, horizon=1.0).messages_per_admitted == float("inf")

    def test_conservation_ok(self):
        TaskCounters(generated=5, admitted_local=3, rejected=1).check_conservation()

    def test_conservation_violation(self):
        tc = TaskCounters(generated=2, admitted_local=2, rejected=1)
        with pytest.raises(AssertionError):
            tc.check_conservation()
