"""Integration-grade tests for the migration coordinator."""

from collections import Counter

import pytest

from repro.experiments.config import ExperimentConfig, paper_config
from repro.experiments.runner import build_system
from repro.network.impairments import ImpairmentConfig
from repro.node.task import Task, TaskOutcome, TaskStatus
from repro.protocols.base import ProtocolConfig
from repro.workload.attack import AttackConfig
from repro.workload.churn import ChurnConfig


def small_system(**overrides):
    cfg = ExperimentConfig(
        protocol="realtor",
        protocol_config=ProtocolConfig(scope="network"),
        rows=2,
        cols=2,
        queue_capacity=10.0,
        horizon=100.0,
        arrival_rate=0.001,  # drive tasks by hand
        **overrides,
    )
    return build_system(cfg)


def place(system, size, origin):
    t = Task(size=size, arrival_time=system.sim.now, origin=origin)
    system.coordinator.place_task(t)
    return t


def assert_resident_once(system):
    """Every queue resident is QUEUED, indexed, and on one host only."""
    hosts_of = Counter()
    for host in system.hosts.values():
        residents = host.queue.resident_tasks()
        assert len(host.queue) == len(residents), host.node_id
        for t in residents:
            assert t.status is TaskStatus.QUEUED, (host.node_id, t.task_id, t.status)
            hosts_of[t.task_id] += 1
    assert [tid for tid, n in hosts_of.items() if n > 1] == []


class TestPlacement:
    def test_local_admission_when_fits(self):
        s = small_system()
        t = place(s, 5.0, 0)
        assert t.outcome is TaskOutcome.LOCAL
        assert s.metrics.tasks.admitted_local == 1

    def test_migration_when_local_full(self):
        s = small_system()
        place(s, 9.0, 0)
        t = place(s, 5.0, 0)
        s.sim.run(until=1.0)
        assert t.outcome is TaskOutcome.MIGRATED
        assert t.admitted_at != 0
        assert s.metrics.tasks.admitted_migrated == 1
        assert s.metrics.tasks.migration_attempts == 1

    def test_rejection_when_everything_full(self):
        s = small_system()
        for n in range(4):
            place(s, 9.0, n)
        t = place(s, 5.0, 0)
        s.sim.run(until=1.0)
        assert t.status is TaskStatus.REJECTED
        assert s.metrics.tasks.rejected == 1

    def test_one_shot_gives_single_attempt(self):
        s = small_system()
        # make the view lie: all peers look free, but all are full
        for n in range(4):
            place(s, 9.0, n)
        for agent in s.agents.values():
            for other in range(4):
                agent.view.update(other, 10.0, 0.0, True, s.sim.now)
        t = place(s, 5.0, 0)
        s.sim.run(until=1.0)
        assert t.status is TaskStatus.REJECTED
        assert s.metrics.tasks.migration_attempts == 1  # exactly one try

    def test_k_try_retries_next_candidate(self):
        s = small_system(policy="3-try")
        for n in range(4):
            place(s, 9.0, n)
        # lie about two peers, tell the truth about one
        agent = s.agents[0]
        agent.view.clear()
        agent.view.update(1, 10.0, 0.0, True, s.sim.now)  # actually full
        agent.view.update(2, 10.0, 0.0, True, s.sim.now)  # actually full
        s.hosts[3].crash()  # now empty
        agent.view.update(3, 5.0, 0.5, True, s.sim.now)   # ranked last
        t = place(s, 5.0, 0)
        s.sim.run(until=1.0)
        assert t.outcome is TaskOutcome.MIGRATED
        assert t.admitted_at == 3
        assert s.metrics.tasks.migration_attempts == 3

    def test_failed_candidate_forgotten(self):
        s = small_system()
        for n in range(4):
            place(s, 9.0, n)
        s.agents[0].view.update(1, 10.0, 0.0, True, s.sim.now)
        place(s, 5.0, 0)
        s.sim.run(until=1.0)
        assert s.agents[0].view.get(1) is None

    def test_conservation_invariant(self):
        s = small_system()
        for i in range(30):
            place(s, 4.0, i % 4)
        s.sim.run(until=50.0)
        m = s.metrics.tasks
        m.check_conservation()
        assert m.generated == 30
        assert m.admitted + m.rejected == 30


class TestSurvivability:
    def test_compromise_evacuates_queued_tasks(self):
        s = small_system()
        place(s, 5.0, 0)
        victims = [place(s, 3.0, 0), place(s, 2.0, 0)]  # queued behind head
        s.sim.run(until=0.5)
        s.faults.compromise(0)
        s.sim.run(until=1.5)
        for t in victims:
            assert t.outcome is TaskOutcome.EVACUATED
            assert t.admitted_at != 0
        assert s.metrics.tasks.evacuations == 2
        assert s.metrics.tasks.evacuation_failures == 0

    def test_evacuation_failure_loses_task(self):
        s = small_system()
        for n in range(1, 4):
            place(s, 9.0, n)  # nowhere to go
        place(s, 5.0, 0)
        queued = place(s, 4.0, 0)
        s.sim.run(until=0.5)
        s.faults.compromise(0)
        s.sim.run(until=1.5)
        assert queued.outcome is TaskOutcome.LOST
        assert s.metrics.tasks.evacuation_failures >= 1

    def test_crash_loses_resident_tasks(self):
        s = small_system()
        t1 = place(s, 5.0, 0)
        t2 = place(s, 4.0, 0)
        s.faults.crash(0)
        assert t1.outcome is TaskOutcome.LOST
        assert t2.outcome is TaskOutcome.LOST
        assert s.metrics.tasks.lost == 2

    def test_arrival_on_just_crashed_node_rejected(self):
        s = small_system()
        s.faults.crash(0)
        t = place(s, 5.0, 0)
        assert t.status is TaskStatus.REJECTED

    def test_recovered_node_serves_again(self):
        s = small_system()
        s.faults.crash(0)
        s.faults.recover(0)
        t = place(s, 5.0, 0)
        assert t.outcome is TaskOutcome.LOCAL


class TestValidation:
    def test_mismatched_maps_rejected(self):
        s = small_system()
        from repro.migration.migrator import MigrationCoordinator

        with pytest.raises(ValueError):
            MigrationCoordinator(
                s.sim, s.hosts, {}, s.admissions, s.metrics
            )


class TestSilentFallback:
    """A silent candidate (dead / timing out) vs an explicit refusal."""

    def _lying_view(self, s):
        # agent 0 believes node 1 (best) and node 3 (runner-up) are free
        agent = s.agents[0]
        agent.view.clear()
        agent.view.update(1, 10.0, 0.0, True, s.sim.now)
        agent.view.update(3, 5.0, 0.5, True, s.sim.now)
        return agent

    def test_unreachable_candidate_falls_back(self):
        s = small_system(migration_retry_budget=1)
        place(s, 9.0, 0)
        self._lying_view(s)
        s.faults.crash(1)  # best candidate is a corpse
        t = place(s, 5.0, 0)
        s.sim.run(until=1.0)
        assert t.outcome is TaskOutcome.MIGRATED
        assert t.admitted_at == 3  # next-ranked candidate took it
        assert s.coordinator.silent_fallbacks == 1

    def test_timed_out_candidate_falls_back(self):
        s = small_system(migration_retry_budget=1)
        place(s, 9.0, 0)
        self._lying_view(s)
        s.transport.unregister(1)  # alive but never answers
        t = place(s, 5.0, 0)
        s.sim.run(until=10.0)  # past the 5s negotiation timeout
        assert t.outcome is TaskOutcome.MIGRATED
        # the view keeps refreshing during the wait, so the fallback is
        # whichever untried node ranks best by then — never the silent one
        assert t.admitted_at in (2, 3)
        assert s.admissions[0].timeouts_fired == 1
        assert s.coordinator.silent_fallbacks == 1

    def test_refusal_does_not_fall_back(self):
        s = small_system(migration_retry_budget=5)
        for n in range(4):
            place(s, 9.0, n)  # node 1 will explicitly refuse
        self._lying_view(s)
        t = place(s, 5.0, 0)
        s.sim.run(until=10.0)
        assert t.status is TaskStatus.REJECTED
        assert s.coordinator.silent_fallbacks == 0  # budget untouched

    def test_zero_budget_is_paper_faithful(self):
        s = small_system()  # default: no retry budget
        place(s, 9.0, 0)
        self._lying_view(s)
        s.faults.crash(1)
        t = place(s, 5.0, 0)
        s.sim.run(until=10.0)
        assert t.status is TaskStatus.REJECTED  # one-shot, one corpse, done
        assert s.coordinator.silent_fallbacks == 0

    def test_budget_bounds_the_chain(self):
        s = small_system(migration_retry_budget=1)
        place(s, 9.0, 0)
        agent = s.agents[0]
        agent.view.clear()
        for n in (1, 2, 3):
            agent.view.update(n, 10.0 - n, 0.0, True, s.sim.now)
            s.faults.crash(n)  # every candidate silent
        t = place(s, 5.0, 0)
        s.sim.run(until=20.0)
        assert t.status is TaskStatus.REJECTED
        assert s.coordinator.silent_fallbacks == 1  # only one extra try


class TestOrphanedGrants:
    """Regression: a granted negotiation whose reply is lost must settle
    as an admission, not crash ``mark_rejected`` on a completed task.

    Under message loss the responder can reserve and admit a task while
    every reply back to the origin disappears; the origin then times out
    and exhausts its chain with the task genuinely running (or finished)
    remotely.  The give-up path used to call ``mark_rejected`` on it —
    a ``RuntimeError`` on completed tasks, double books otherwise.
    """

    @staticmethod
    def _lossy_run(seed: int):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import build_system
        from repro.network.impairments import ImpairmentConfig

        cfg = ExperimentConfig(
            protocol="realtor",
            arrival_rate=10.0,
            queue_capacity=12.0,
            horizon=60.0,
            seed=seed,
            impairments=ImpairmentConfig(loss_rate=0.25),
        )
        system = build_system(cfg)
        system.run()
        return system

    def test_lost_grant_settles_as_admission(self):
        s = self._lossy_run(seed=7)
        # the race actually happened, repeatedly, and nothing crashed
        assert s.coordinator.orphaned_grants > 0
        s.metrics.tasks.check_conservation()
        # every settled task is admitted or rejected exactly once (the
        # handful still negotiating at the horizon are neither)
        m = s.metrics.tasks
        in_flight = m.generated - (m.admitted + m.rejected + m.lost)
        assert 0 <= in_flight < m.generated // 10

    def test_orphan_settlement_is_deterministic(self):
        a = self._lossy_run(seed=2)
        b = self._lossy_run(seed=2)
        assert a.coordinator.orphaned_grants == b.coordinator.orphaned_grants
        assert a.metrics.tasks.generated == b.metrics.tasks.generated
        assert a.metrics.tasks.admitted == b.metrics.tasks.admitted

    def test_perfect_network_never_orphans(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import build_system

        cfg = ExperimentConfig(
            protocol="realtor",
            arrival_rate=10.0,
            queue_capacity=12.0,
            horizon=60.0,
            seed=7,
        )
        system = build_system(cfg)
        system.run()
        assert system.coordinator.orphaned_grants == 0


class TestAdmitOnce:
    """A duplicated ADMIT_REQ, or a silent-fallback retry after a grant
    whose reply was lost, must not admit a task a second time: the second
    copy lands on another host (or twice in one queue), and when one copy
    completes the other is a non-QUEUED head that strands its host."""

    @pytest.mark.parametrize(
        "impairments",
        [ImpairmentConfig(duplicate_rate=0.05), ImpairmentConfig(loss_rate=0.1)],
        ids=["duplicate", "loss"],
    )
    def test_impaired_run_admits_each_task_once(self, impairments):
        cfg = ExperimentConfig(
            protocol="realtor",
            arrival_rate=8.0,
            horizon=150.0,
            seed=5,
            migration_retry_budget=1,
            impairments=impairments,
        )
        s = build_system(cfg)
        s.run()
        assert_resident_once(s)
        s.metrics.tasks.check_conservation()


class TestEvacuationSettlesOnce:
    """An evacuation runs the placement chain, so a granted evacuation
    whose reply never returns settles as an orphaned grant instead of a
    loss of a task the responder is running."""

    @pytest.mark.parametrize(
        "cfg",
        [
            # a graceful leaver is down before its replies return
            paper_config("realtor", 6.0, horizon=600.0, seed=1).with_(
                churn=ChurnConfig(join_rate=0.02, leave_rate=0.02)
            ),
            paper_config("realtor", 8.0, horizon=250.0, seed=10).with_(
                attack=AttackConfig(kind="sweep", start=40.0, dwell=25.0, victims=4),
                impairments=ImpairmentConfig(loss_rate=0.1),
            ),
        ],
        ids=["graceful-churn", "lossy-attack"],
    )
    def test_granted_evacuations_are_kept(self, cfg):
        s = build_system(cfg)
        s.run()
        m = s.metrics.tasks
        assert m.evacuation_failures < m.evacuations
        assert s.coordinator.orphaned_grants > 0
        assert_resident_once(s)
