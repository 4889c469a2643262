"""Unit tests for the task model."""

import pytest

from repro.node.task import Task, TaskOutcome, TaskStatus


class TestConstruction:
    def test_defaults(self):
        t = Task(size=5.0, arrival_time=1.0, origin=3)
        assert t.status is TaskStatus.CREATED
        assert t.outcome is None
        assert t.absolute_deadline == float("inf")

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Task(size=0.0, arrival_time=0.0, origin=0)
        with pytest.raises(ValueError):
            Task(size=-1.0, arrival_time=0.0, origin=0)

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError):
            Task(size=1.0, arrival_time=0.0, origin=0, relative_deadline=0.0)

    def test_ids_unique(self):
        a = Task(size=1.0, arrival_time=0.0, origin=0)
        b = Task(size=1.0, arrival_time=0.0, origin=0)
        assert a.task_id != b.task_id

    def test_absolute_deadline(self):
        t = Task(size=1.0, arrival_time=10.0, origin=0, relative_deadline=5.0)
        assert t.absolute_deadline == 15.0


class TestLifecycle:
    def test_admit_then_complete(self):
        t = Task(size=2.0, arrival_time=0.0, origin=0)
        t.mark_admitted(4, 0.5, TaskOutcome.LOCAL)
        assert t.status is TaskStatus.QUEUED
        assert t.admitted_at == 4
        t.mark_completed(2.5)
        assert t.status is TaskStatus.COMPLETED
        assert t.response_time == 2.5

    def test_cannot_complete_unadmitted(self):
        t = Task(size=1.0, arrival_time=0.0, origin=0)
        with pytest.raises(RuntimeError):
            t.mark_completed(1.0)

    def test_cannot_admit_completed(self):
        t = Task(size=1.0, arrival_time=0.0, origin=0)
        t.mark_admitted(0, 0.0, TaskOutcome.LOCAL)
        t.mark_completed(1.0)
        with pytest.raises(RuntimeError):
            t.mark_admitted(1, 2.0, TaskOutcome.MIGRATED)

    def test_cannot_admit_twice(self):
        t = Task(size=1.0, arrival_time=0.0, origin=0)
        t.mark_admitted(0, 0.0, TaskOutcome.LOCAL)
        with pytest.raises(RuntimeError):
            t.mark_admitted(1, 0.5, TaskOutcome.MIGRATED)
        assert t.admitted_at == 0

    def test_reject(self):
        t = Task(size=1.0, arrival_time=0.0, origin=0)
        t.mark_rejected()
        assert t.status is TaskStatus.REJECTED
        assert t.outcome is TaskOutcome.REJECTED

    def test_cannot_reject_completed(self):
        t = Task(size=1.0, arrival_time=0.0, origin=0)
        t.mark_admitted(0, 0.0, TaskOutcome.LOCAL)
        t.mark_completed(1.0)
        with pytest.raises(RuntimeError):
            t.mark_rejected()

    def test_lost(self):
        t = Task(size=1.0, arrival_time=0.0, origin=0)
        t.mark_admitted(0, 0.0, TaskOutcome.LOCAL)
        t.mark_lost()
        assert t.outcome is TaskOutcome.LOST


class TestDeadlines:
    def test_met_deadline(self):
        t = Task(size=1.0, arrival_time=0.0, origin=0, relative_deadline=10.0)
        t.mark_admitted(0, 0.0, TaskOutcome.LOCAL)
        t.mark_completed(5.0)
        assert t.met_deadline is True

    def test_missed_deadline(self):
        t = Task(size=1.0, arrival_time=0.0, origin=0, relative_deadline=2.0)
        t.mark_admitted(0, 0.0, TaskOutcome.LOCAL)
        t.mark_completed(5.0)
        assert t.met_deadline is False

    def test_pending_deadline_is_none(self):
        t = Task(size=1.0, arrival_time=0.0, origin=0, relative_deadline=2.0)
        assert t.met_deadline is None
        assert t.response_time is None
