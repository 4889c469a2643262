"""Unit tests for admission negotiation."""

import pytest

from repro.migration.admission import AdmissionControl
from repro.network.faults import FaultManager
from repro.network.generators import mesh
from repro.network.transport import Transport
from repro.node.host import Host
from repro.node.task import Task, TaskOutcome, TaskStatus
from repro.sim.kernel import Simulator


def build(capacity=100.0, with_faults=False):
    sim = Simulator()
    topo = mesh(2, 2)
    faults = FaultManager(sim, topo) if with_faults else None
    transport = Transport(
        sim, topo,
        is_up=faults.is_up if faults else None,
        liveness_version=(lambda: faults.version) if faults else None,
    )
    hosts = {n: Host(sim, n, capacity=capacity) for n in topo.nodes()}
    acs = {n: AdmissionControl(sim, transport, hosts[n]) for n in topo.nodes()}
    return sim, hosts, acs, faults


def task(size=5.0, origin=0):
    return Task(size=size, arrival_time=0.0, origin=origin)


class TestGrant:
    def test_successful_negotiation_admits_remotely(self):
        sim, hosts, acs, _ = build()
        outcomes = []
        t = task()
        acs[0].negotiate(t, 1, TaskOutcome.MIGRATED, outcomes.append)
        sim.run(until=1.0)
        assert outcomes == ["granted"]
        assert t.status is TaskStatus.QUEUED
        assert t.admitted_at == 1
        assert t.outcome is TaskOutcome.MIGRATED
        assert t.migrations == 1
        assert hosts[1].usage() > 0

    def test_full_candidate_denies(self):
        sim, hosts, acs, _ = build(capacity=10.0)
        hosts[1].try_accept(task(size=9.0, origin=1), TaskOutcome.LOCAL)
        outcomes = []
        t = task(size=5.0)
        acs[0].negotiate(t, 1, TaskOutcome.MIGRATED, outcomes.append)
        sim.run(until=1.0)
        assert outcomes == ["refused"]
        assert t.status is TaskStatus.CREATED  # caller decides what next

    def test_concurrent_requests_cannot_overcommit(self):
        sim, hosts, acs, _ = build(capacity=10.0)
        outcomes = []
        t1, t2 = task(size=6.0, origin=0), task(size=6.0, origin=2)
        acs[0].negotiate(t1, 1, TaskOutcome.MIGRATED, outcomes.append)
        acs[2].negotiate(t2, 1, TaskOutcome.MIGRATED, outcomes.append)
        sim.run(until=1.0)
        assert sorted(outcomes) == ["granted", "refused"]
        assert hosts[1].queue.work_admitted == 6.0  # exactly one admitted

    def test_grant_rate_statistics(self):
        sim, hosts, acs, _ = build(capacity=10.0)
        hosts[1].try_accept(task(size=9.0, origin=1), TaskOutcome.LOCAL)
        acs[0].negotiate(task(size=5.0), 1, TaskOutcome.MIGRATED, lambda reason: None)
        acs[0].negotiate(task(size=0.5), 1, TaskOutcome.MIGRATED, lambda reason: None)
        sim.run(until=1.0)
        assert acs[1].requests_received == 2
        assert acs[1].requests_granted == 1

    def test_observer_sees_decisions(self):
        seen = []
        sim = Simulator()
        topo = mesh(2, 2)
        tr = Transport(sim, topo)
        hosts = {n: Host(sim, n, capacity=100.0) for n in topo.nodes()}
        acs = {
            n: AdmissionControl(sim, tr, hosts[n], on_request_observed=seen.append)
            for n in topo.nodes()
        }
        acs[0].negotiate(task(), 1, TaskOutcome.MIGRATED, lambda reason: None)
        sim.run(until=1.0)
        assert seen == [True]


class TestFailureModes:
    def test_dead_candidate_fails_fast(self):
        sim, hosts, acs, faults = build(with_faults=True)
        faults.crash(1)
        outcomes = []
        acs[0].negotiate(task(), 1, TaskOutcome.MIGRATED, outcomes.append)
        sim.run(until=1.0)
        assert outcomes == ["unreachable"]

    def test_timeout_resolves_false(self):
        sim, hosts, acs, faults = build(with_faults=True)
        outcomes = []
        # crash the candidate *after* the request is dispatched but before
        # delivery cannot happen at zero latency; emulate a lost reply by
        # unregistering the responder's handler
        sim.queue  # (no-op; keep explicit)
        t = task()
        # monkey: negotiate against a node that never answers
        acs[0]._pending[999] = outcomes.append
        acs[0]._timeouts[999] = sim.after(acs[0].reply_timeout, acs[0]._on_timeout, 999)
        sim.run(until=10.0)
        assert outcomes == ["timeout"]

    def test_request_for_a_task_its_requester_gave_up_on_is_refused(self):
        # A request delivered after the requester's timeout (a stalled
        # live scheduler, a slow route) finds the task REJECTED.  Admitting
        # it enqueued it and *then* raised: a resident that never completes
        # and blocks every completion behind it.
        sim, hosts, acs, _ = build()
        outcomes = []
        t = task()
        acs[0].negotiate(t, 1, TaskOutcome.MIGRATED, outcomes.append)
        t.mark_rejected()  # MigrationCoordinator._give_up, on the timeout
        sim.run(until=1.0)
        assert outcomes == ["refused"]
        assert len(hosts[1].queue) == 0 and acs[1].requests_granted == 0
        assert t.status is TaskStatus.REJECTED

    def test_request_for_an_admitted_task_is_refused(self):
        # A duplicated request, or a retry after a grant whose reply was
        # lost, names a task already QUEUED elsewhere: a task is admitted
        # once, so it never lands on a second host.
        sim, hosts, acs, _ = build()
        t = task()
        hosts[2].try_accept(t, TaskOutcome.LOCAL)
        outcomes = []
        acs[0].negotiate(t, 1, TaskOutcome.MIGRATED, outcomes.append)
        sim.run(until=1.0)
        assert outcomes == ["refused"]
        assert len(hosts[1].queue) == 0 and t.admitted_at == 2

    def test_callback_fires_exactly_once(self):
        sim, hosts, acs, _ = build()
        outcomes = []
        acs[0].negotiate(task(), 1, TaskOutcome.MIGRATED, outcomes.append)
        sim.run(until=10.0)  # reply AND the timeout window both elapse
        assert outcomes == ["granted"]

    def test_reply_timeout_validation(self):
        sim, hosts, _, _ = build()
        with pytest.raises(ValueError):
            AdmissionControl(sim, Transport(sim, mesh(2, 2)), hosts[0],
                             reply_timeout=0.0)
