"""Unit tests for the host resource stack."""

import pytest

from repro.node.host import Host
from repro.node.resources import ResourcePool
from repro.node.task import Task, TaskOutcome, TaskStatus
from repro.sim.kernel import Simulator


def make(sim=None, capacity=100.0, pool=None, on_complete=None):
    sim = sim or Simulator()
    return sim, Host(sim, 0, capacity=capacity, pool=pool, on_complete=on_complete)


def task(size=5.0, t=0.0, demand=None):
    return Task(size=size, arrival_time=t, origin=0, demand=demand or {})


class TestLocalAdmission:
    def test_accept_updates_state(self):
        sim, host = make()
        completion = host.try_accept(task(10.0), TaskOutcome.LOCAL)
        assert completion == 10.0
        assert host.usage() == pytest.approx(0.1)
        assert host.availability() == pytest.approx(90.0)

    def test_can_accept_checks_queue(self):
        sim, host = make(capacity=10.0)
        host.try_accept(task(8.0), TaskOutcome.LOCAL)
        assert host.try_accept(task(3.0), TaskOutcome.LOCAL) is None
        assert host.try_accept(task(2.0), TaskOutcome.LOCAL) == 10.0

    def test_accept_raises_when_full(self):
        sim, host = make(capacity=10.0)
        host.try_accept(task(9.0), TaskOutcome.LOCAL)
        assert host.try_accept(task(5.0), TaskOutcome.LOCAL) is None
        assert len(host.queue) == 1

    def test_completion_callback_forwarded(self):
        done = []
        sim, host = make(on_complete=done.append)
        t = task(3.0)
        host.try_accept(t, TaskOutcome.LOCAL)
        sim.run(until=10.0)
        assert host.evacuable_tasks() == []
        assert done == [t]

    def test_outcome_recorded(self):
        sim, host = make()
        t = task()
        host.try_accept(t, TaskOutcome.MIGRATED)
        assert t.outcome is TaskOutcome.MIGRATED
        assert t.admitted_at == 0

    def test_availability_vector(self):
        sim, host = make(pool=ResourcePool.of(bandwidth=8.0))
        vec = host.availability_vector()
        assert vec == {"cpu": 100.0, "bandwidth": 8.0}


class TestSnapshot:
    def test_matches_individual_queries(self):
        sim, host = make()
        host.try_accept(task(30.0), TaskOutcome.LOCAL)
        sim.run(until=10.0)
        snap = host.snapshot()
        assert snap.time == sim.now
        assert snap.backlog == pytest.approx(host.queue.backlog())
        assert snap.usage == pytest.approx(host.usage())
        assert snap.headroom == pytest.approx(host.availability())
        assert snap.available == host.is_available()

    def test_idle_queue_clamps_backlog(self):
        sim, host = make()
        host.try_accept(task(5.0), TaskOutcome.LOCAL)
        sim.run(until=20.0)
        snap = host.snapshot()
        assert snap.backlog == 0.0
        assert snap.usage == 0.0
        assert snap.headroom == 100.0
        assert snap.available


class TestTryAccept:
    def test_success_matches_accept(self):
        sim, host = make()
        t = task(10.0)
        assert host.try_accept(t, TaskOutcome.LOCAL) == 10.0
        assert t.status is TaskStatus.QUEUED
        assert t.admitted_at == 0

    def test_miss_does_not_count_as_rejection(self):
        sim, host = make(capacity=10.0)
        host.try_accept(task(9.0), TaskOutcome.LOCAL)
        t = task(5.0)
        assert host.try_accept(t, TaskOutcome.LOCAL) is None
        assert t.status is TaskStatus.CREATED  # a miss settles nothing

    def test_queue_miss_releases_pool_hold(self):
        sim, host = make(capacity=10.0, pool=ResourcePool.of(bandwidth=8.0))
        host.try_accept(task(9.0), TaskOutcome.LOCAL)
        t = task(5.0, demand={"bandwidth": 4.0})
        assert host.try_accept(t, TaskOutcome.LOCAL) is None
        assert host.pool.availability_vector() == {"bandwidth": 8.0}

    def test_pool_miss_refuses(self):
        sim, host = make(pool=ResourcePool.of(bandwidth=8.0))
        t = task(5.0, demand={"bandwidth": 9.0})
        assert host.try_accept(t, TaskOutcome.LOCAL) is None
        assert len(host.queue) == 0


class TestMultiResource:
    def test_demand_allocated_and_released(self):
        sim, host = make(pool=ResourcePool.of(bandwidth=10.0))
        t = task(5.0, demand={"bandwidth": 4.0})
        host.try_accept(t, TaskOutcome.LOCAL)
        assert host.pool.available("bandwidth") == 6.0
        sim.run(until=10.0)
        assert host.availability_vector()["bandwidth"] == 10.0

    def test_insufficient_demand_blocks_accept(self):
        sim, host = make(pool=ResourcePool.of(bandwidth=3.0))
        t = task(5.0, demand={"bandwidth": 4.0})
        assert host.try_accept(t, TaskOutcome.LOCAL) is None

    def test_queue_full_rolls_back_pool(self):
        sim, host = make(capacity=10.0, pool=ResourcePool.of(bandwidth=10.0))
        host.try_accept(task(9.0), TaskOutcome.LOCAL)
        t = task(5.0, demand={"bandwidth": 4.0})
        assert host.try_accept(t, TaskOutcome.LOCAL) is None
        assert host.pool.available("bandwidth") == 10.0


class TestAvailability:
    def test_is_available_below_threshold(self):
        sim, host = make()
        host.try_accept(task(80.0), TaskOutcome.LOCAL)
        assert host.is_available()
        host.try_accept(task(15.0), TaskOutcome.LOCAL)
        assert not host.is_available()


class TestSurvivability:
    def test_evacuable_excludes_started_head(self):
        sim, host = make()
        t1, t2, t3 = task(5.0), task(5.0), task(5.0)
        for t in (t1, t2, t3):
            host.try_accept(t, TaskOutcome.LOCAL)
        sim.run(until=1.0)
        evac = host.evacuable_tasks()
        assert t1 not in evac
        assert evac == [t2, t3]

    def test_withdraw_resets_task(self):
        sim, host = make()
        t1, t2 = task(5.0), task(5.0)
        host.try_accept(t1, TaskOutcome.LOCAL)
        host.try_accept(t2, TaskOutcome.LOCAL)
        host.withdraw(t2)
        assert t2.status is TaskStatus.CREATED
        assert host.availability() == pytest.approx(95.0)

    def test_withdraw_releases_pool(self):
        sim, host = make(pool=ResourcePool.of(bandwidth=10.0))
        t1 = task(5.0)
        t2 = task(5.0, demand={"bandwidth": 5.0})
        host.try_accept(t1, TaskOutcome.LOCAL)
        host.try_accept(t2, TaskOutcome.LOCAL)
        host.withdraw(t2)
        assert host.pool.available("bandwidth") == 10.0

    def test_crash_loses_all(self):
        sim, host = make(pool=ResourcePool.of(bandwidth=10.0))
        t1 = task(5.0, demand={"bandwidth": 2.0})
        t2 = task(5.0)
        host.try_accept(t1, TaskOutcome.LOCAL)
        host.try_accept(t2, TaskOutcome.LOCAL)
        lost = host.crash()
        assert lost == [t1, t2]
        assert all(t.outcome is TaskOutcome.LOST for t in lost)
        assert host.usage() == 0.0
        assert host.pool.available("bandwidth") == 10.0
