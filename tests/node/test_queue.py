"""Unit tests for the work queue."""

import asyncio

import pytest

from repro.live.scheduler import LiveScheduler
from repro.node.queue import WorkQueue
from repro.node.task import Task, TaskOutcome, TaskStatus
from repro.sim.kernel import Simulator


def admitted(task, node=0, time=0.0):
    task.mark_admitted(node, time, TaskOutcome.LOCAL)
    return task


class TestBacklog:
    def test_empty_queue(self):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        assert q.backlog() == 0.0
        assert q.usage() == 0.0
        assert q.headroom() == 100.0

    def test_backlog_rises_with_admissions(self):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        q.try_admit(admitted(Task(size=10.0, arrival_time=0.0, origin=0)))
        q.try_admit(admitted(Task(size=5.0, arrival_time=0.0, origin=0)))
        assert q.backlog() == 15.0
        assert q.usage() == pytest.approx(0.15)

    def test_backlog_decays_at_unit_rate(self):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        q.try_admit(admitted(Task(size=10.0, arrival_time=0.0, origin=0)))
        sim.run(until=4.0)
        assert q.backlog() == pytest.approx(6.0)
        sim.run(until=20.0)
        assert q.backlog() == 0.0

    def test_completion_time_fifo(self):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        c1 = q.try_admit(admitted(Task(size=3.0, arrival_time=0.0, origin=0)))
        c2 = q.try_admit(admitted(Task(size=4.0, arrival_time=0.0, origin=0)))
        assert (c1, c2) == (3.0, 7.0)

    def test_idle_gap_resets_busy_until(self):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        q.try_admit(admitted(Task(size=2.0, arrival_time=0.0, origin=0)))
        sim.run(until=10.0)
        c = q.try_admit(admitted(Task(size=3.0, arrival_time=10.0, origin=0)))
        assert c == 13.0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            WorkQueue(Simulator(), 0.0)


class TestAdmission:
    def test_fits_is_paper_test(self):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        q.try_admit(admitted(Task(size=96.0, arrival_time=0.0, origin=0)))
        assert q.fits(4.0)
        assert not q.fits(4.1)

    def test_overfull_admission_raises(self):
        sim = Simulator()
        q = WorkQueue(sim, 10.0)
        q.try_admit(admitted(Task(size=8.0, arrival_time=0.0, origin=0)))
        assert q.try_admit(admitted(Task(size=3.0, arrival_time=0.0, origin=0))) is None

    def test_completion_marks_task_and_fires_callback(self):
        sim = Simulator()
        done = []
        q = WorkQueue(sim, 100.0, on_complete=done.append)
        t = admitted(Task(size=5.0, arrival_time=0.0, origin=0))
        q.try_admit(t)
        sim.run()
        assert done == [t]
        assert t.status is TaskStatus.COMPLETED
        assert t.completed_time == 5.0
        assert q.completed_count == 1

    def test_a_late_completion_records_its_instant(self, manual_clock):
        # A completion is quiet: the live scheduler runs it in the batch
        # of its next wake, here the loud event at 3.0, yet the task
        # finished at the instant its queue scheduled.
        sim = LiveScheduler(time_scale=100.0)
        ran_at = []
        q = WorkQueue(sim, 100.0, on_complete=lambda _t: ran_at.append(sim.now))
        t = admitted(Task(size=1.5, arrival_time=0.0, origin=0))
        assert q.try_admit(t) == 1.5
        sim.at(3.0, lambda: None)
        asyncio.run(sim.run(until=4.0))
        assert ran_at and ran_at[0] >= 3.0
        assert t.completed_time == 1.5 and t.response_time == 1.5

    def test_counters(self):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        for size in (2.0, 3.0):
            q.try_admit(admitted(Task(size=size, arrival_time=0.0, origin=0)))
        assert q.admitted_count == 2
        assert q.work_admitted == 5.0
        assert len(q) == 2
        sim.run()
        assert len(q) == 0


class TestDropAll:
    def test_crash_loses_resident_tasks(self):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        tasks = [admitted(Task(size=5.0, arrival_time=0.0, origin=0)) for _ in range(3)]
        for t in tasks:
            q.try_admit(t)
        lost = q.drop_all()
        assert lost == tasks
        assert all(t.outcome is TaskOutcome.LOST for t in tasks)
        assert q.backlog() == 0.0

    def test_completion_events_noop_after_drop(self):
        sim = Simulator()
        done = []
        q = WorkQueue(sim, 100.0, on_complete=done.append)
        q.try_admit(admitted(Task(size=5.0, arrival_time=0.0, origin=0)))
        q.drop_all()
        sim.run()
        assert done == []
        assert q.completed_count == 0

    def test_completion_of_a_task_settled_elsewhere_raises(self):
        # drop_all and remove cancel their events, so a resident that is
        # no longer QUEUED when its completion fires was settled behind the
        # queue's back; returning quietly left a dead head that swallowed
        # every later completion on the host.
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        task = admitted(Task(size=5.0, arrival_time=0.0, origin=0))
        q.try_admit(task)
        task.mark_lost()
        with pytest.raises(RuntimeError, match=f"task {task.task_id} .*rejected"):
            sim.run()


class TestRemove:
    def test_remove_unstarted_task_compacts(self):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        t1 = admitted(Task(size=4.0, arrival_time=0.0, origin=0))
        t2 = admitted(Task(size=6.0, arrival_time=0.0, origin=0))
        t3 = admitted(Task(size=2.0, arrival_time=0.0, origin=0))
        for t in (t1, t2, t3):
            q.try_admit(t)
        q.remove(t2)
        assert q.backlog() == 6.0
        assert t2.status is TaskStatus.CREATED
        sim.run()
        # remaining tasks complete, earlier than originally
        assert t1.completed_time == 4.0
        assert t3.completed_time == 6.0

    def test_remove_started_head_refused(self):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        head = admitted(Task(size=10.0, arrival_time=0.0, origin=0))
        q.try_admit(head)
        sim.run(until=3.0)
        with pytest.raises(ValueError):
            q.remove(head)

    def test_remove_head_at_admission_instant_allowed(self):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        head = admitted(Task(size=10.0, arrival_time=0.0, origin=0))
        q.try_admit(head)
        q.remove(head)  # zero execution so far
        assert q.backlog() == 0.0

    def test_remove_missing_task_raises(self):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        with pytest.raises(KeyError):
            q.remove(Task(size=1.0, arrival_time=0.0, origin=0))

    def test_no_double_completion_after_remove(self):
        sim = Simulator()
        done = []
        q = WorkQueue(sim, 100.0, on_complete=done.append)
        t1 = admitted(Task(size=4.0, arrival_time=0.0, origin=0))
        t2 = admitted(Task(size=6.0, arrival_time=0.0, origin=0))
        t3 = admitted(Task(size=2.0, arrival_time=0.0, origin=0))
        for t in (t1, t2, t3):
            q.try_admit(t)
        q.remove(t2)
        sim.run()
        assert done == [t1, t3]
        assert q.completed_count == 2

    def test_running_head_preserved_across_remove(self):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        head = admitted(Task(size=10.0, arrival_time=0.0, origin=0))
        tail = admitted(Task(size=4.0, arrival_time=0.0, origin=0))
        q.try_admit(head)
        q.try_admit(tail)
        sim.run(until=5.0)  # head half done
        q.remove(tail)
        sim.run()
        assert head.completed_time == 10.0  # not restarted

    def test_removed_task_readmitted_elsewhere_uses_new_schedule(self):
        """Regression: withdrawal must cancel the original completion event.

        The seed left it live; when the evacuated task was re-admitted on
        another node, the stale event on the *old* queue fired first (the
        task was QUEUED again, satisfying the status guard) and completed
        it at the old, earlier time — the work effectively ran twice.
        """
        sim = Simulator()
        src = WorkQueue(sim, 100.0)
        dst = WorkQueue(sim, 100.0)
        blocker = admitted(Task(size=6.0, arrival_time=0.0, origin=0))
        task = admitted(Task(size=4.0, arrival_time=0.0, origin=0))
        src.try_admit(blocker)
        src.try_admit(task)  # would complete at t=10 on src
        src.remove(task)
        # Re-placement happens later and behind a longer backlog.
        sim.run(until=2.0)
        dst.try_admit(admitted(Task(size=12.0, arrival_time=2.0, origin=0)))
        task.mark_admitted(1, 2.0, TaskOutcome.MIGRATED)
        c = dst.try_admit(task)
        assert c == 18.0
        sim.run()
        assert task.completed_time == 18.0  # not the stale t=10 on src
        assert src.completed_count == 1  # just the blocker
        assert dst.completed_count == 2


class TestFastPathApi:
    def test_try_admit_returns_none_on_miss_without_mutation(self):
        sim = Simulator()
        q = WorkQueue(sim, 10.0)
        q.try_admit(admitted(Task(size=8.0, arrival_time=0.0, origin=0)))
        before = (q.busy_until, q.admitted_count, q.work_admitted, len(q))
        t = admitted(Task(size=3.0, arrival_time=0.0, origin=0))
        assert q.try_admit(t) is None
        assert (q.busy_until, q.admitted_count, q.work_admitted, len(q)) == before

    def test_try_admit_matches_admit(self):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        t = admitted(Task(size=5.0, arrival_time=0.0, origin=0))
        assert q.try_admit(t) == 5.0
        sim.run()
        assert t.status is TaskStatus.COMPLETED

    def test_contains_tracks_residency(self):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        t = admitted(Task(size=5.0, arrival_time=0.0, origin=0))
        other = Task(size=1.0, arrival_time=0.0, origin=0)
        q.try_admit(t)
        assert t in q
        assert other not in q
        sim.run()
        assert t not in q
