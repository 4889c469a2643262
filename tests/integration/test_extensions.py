"""Integration tests for the extension features: multi-resource
discovery (footnote 3) and live churn (join/leave)."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, run_experiment
from repro.node.task import Task, TaskOutcome


class TestMultiResource:
    def base(self, **overrides):
        cfg = dict(arrival_rate=6.0, horizon=300.0, seed=2)
        cfg.update(overrides)
        return ExperimentConfig(**cfg)

    def test_bandwidth_demand_constrains_admission(self):
        plain = run_experiment(self.base())
        tight = run_experiment(
            self.base(
                extra_resources=(("bandwidth", 20.0),),
                demand_means=(("bandwidth", 10.0),),
            )
        )
        assert tight.admission_probability < plain.admission_probability

    def test_generous_bandwidth_changes_nothing(self):
        plain = run_experiment(self.base())
        loose = run_experiment(
            self.base(
                extra_resources=(("bandwidth", 1e9),),
                demand_means=(("bandwidth", 1.0),),
            )
        )
        assert loose.admission_probability == pytest.approx(
            plain.admission_probability, abs=0.01
        )

    def test_security_levels_split_hosts(self):
        system = build_system(
            self.base(security_levels=(0.0, 1.0), secure_task_fraction=0.5)
        )
        # alternating levels across node ids
        assert system.hosts[0].pool.capacity("security") == 0.0
        assert system.hosts[1].pool.capacity("security") == 1.0

    def test_secure_tasks_only_run_on_secure_hosts(self):
        system = build_system(
            self.base(security_levels=(0.0, 1.0), secure_task_fraction=0.0)
        )
        secure_task = Task(
            size=5.0, arrival_time=0.0, origin=0, demand={"security": 1.0}
        )
        system.coordinator.place_task(secure_task)
        system.sim.run(until=1.0)
        if secure_task.admitted_at is not None:
            assert secure_task.admitted_at % 2 == 1  # only odd ids are level 1

    def test_shapes_similar_across_scenarios(self):
        # footnote 3: the curves keep the knee-then-decline shape
        from repro.experiments.ablations import run_study

        result = run_study("a7", rates=(4.0, 6.0, 8.0), horizon=300.0)
        for name in ("cpu-only", "bandwidth", "security"):
            probs = [result.raw[(name, r)].admission_probability
                     for r in (4.0, 6.0, 8.0)]
            assert probs[0] >= probs[1] - 0.01 >= probs[2] - 0.02

    def test_demand_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(demand_means=(("gpu", 1.0),))
        with pytest.raises(ValueError):
            ExperimentConfig(secure_task_fraction=0.5)  # no levels given


class TestChurn:
    def system(self, **overrides):
        cfg = dict(arrival_rate=5.0, horizon=300.0, seed=3)
        cfg.update(overrides)
        return build_system(ExperimentConfig(**cfg))

    def test_joined_node_serves_tasks(self):
        s = self.system()
        s.sim.at(50.0, s.add_node, 25, [12])
        s.run()
        assert s.hosts[25].queue.admitted_count > 0
        s.metrics.tasks.check_conservation()

    def test_joined_node_discovers_peers(self):
        s = self.system(arrival_rate=7.0)
        s.sim.at(50.0, s.add_node, 25, [12, 13])
        s.run()
        # the newcomer's view was empty; protocol traffic filled it
        assert len(s.agents[25].view) > 0

    def test_duplicate_join_rejected(self):
        s = self.system()
        with pytest.raises(ValueError):
            s.add_node(0)

    def test_graceful_leave_evacuates(self):
        s = self.system(arrival_rate=2.0)
        s.sim.run(until=50.0)
        resident_before = len(s.hosts[12].queue)
        s.remove_node(12, graceful=True)
        s.run()
        res = s.result()
        # leaving gracefully must not reject already-admitted work beyond
        # the non-evacuable head task
        assert res.lost <= max(resident_before, 1)

    def test_ungraceful_leave_loses_work(self):
        s = self.system(arrival_rate=8.0)
        s.sim.run(until=100.0)
        had_work = s.hosts[12].queue.backlog() > 0
        s.remove_node(12, graceful=False)
        s.run()
        if had_work:
            assert s.result().lost > 0

    def test_leave_unknown_node_rejected(self):
        s = self.system()
        with pytest.raises(KeyError):
            s.remove_node(404)

    def test_poisson_churn_schedule_drives_system(self):
        from repro.workload.churn import poisson_churn

        s = self.system(horizon=400.0)
        sched = poisson_churn(
            s.topo.nodes(),
            horizon=400.0,
            join_rate=0.01,
            leave_rate=0.005,
            rng=s.sim.streams.stream("churn"),
        )
        sched.install(
            s.sim,
            on_join=lambda nid, attach: s.add_node(nid, list(attach)),
            on_leave=lambda nid: s.remove_node(nid, graceful=True),
        )
        s.run()
        res = s.result()
        s.metrics.tasks.check_conservation()
        assert res.admission_probability > 0.8


class TestDeadlines:
    def cfg(self, rate, **overrides):
        base = dict(arrival_rate=rate, horizon=400.0, seed=5,
                    deadline_factor=10.0)
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_miss_rate_reported_when_deadlines_set(self):
        res = run_experiment(self.cfg(4.0))
        assert "deadline_miss_rate" in res.extra
        assert 0.0 <= res.extra["deadline_miss_rate"] <= 1.0

    def test_no_deadline_no_metric(self):
        res = run_experiment(self.cfg(4.0, deadline_factor=None))
        assert "deadline_miss_rate" not in res.extra

    def test_miss_rate_grows_with_load(self):
        light = run_experiment(self.cfg(2.0))
        heavy = run_experiment(self.cfg(7.0))
        assert (
            heavy.extra["deadline_miss_rate"]
            > light.extra["deadline_miss_rate"]
        )

    def test_qos_collapses_before_admission(self):
        # Section 2: QoS-sensitive applications do not degrade gracefully
        # — at the knee, admission is still ~1.0 but misses abound
        res = run_experiment(self.cfg(5.0))
        assert res.admission_probability > 0.98
        assert res.extra["deadline_miss_rate"] > 0.2

    def test_generous_deadlines_rarely_missed_at_light_load(self):
        # size-proportional deadlines mean a *tiny* task queued behind a
        # normal one can still miss; at light load this is a rare event
        res = run_experiment(self.cfg(1.0, deadline_factor=1000.0))
        assert res.extra["deadline_miss_rate"] < 0.01

    def test_accounting_consistency(self):
        res = run_experiment(self.cfg(5.0))
        met = res.extra["deadlines_met"]
        missed = res.extra["deadlines_missed"]
        assert met + missed == res.completed

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(deadline_factor=0.0)

    def test_qos_ablation_runs(self):
        from repro.experiments.ablations import run_study

        r = run_study("a8", rates=(3.0, 6.0), horizon=200.0,
                       protocols=("realtor",))
        assert len(r.rows) == 2
        miss_low = r.raw[("realtor", 3.0)].extra["deadline_miss_rate"]
        miss_high = r.raw[("realtor", 6.0)].extra["deadline_miss_rate"]
        assert miss_high > miss_low
