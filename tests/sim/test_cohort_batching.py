"""Cohort batching: the vectorized single-run fast path stays bit-identical.

The kernel may hand a consecutive same-``(time, priority)`` run of one
callback's events to a registered batch hook (one Python call instead of
N) — these tests pin that the batched execution is *observationally
identical* to the scalar pop loop: same trace, same result fields, same
``events_executed``, at the 2500-node scaling tier, with impairments on
and off, and across serial/parallel sweep execution.  A profiled run is
the same batched loop with a timing bracket per dispatch, so it is held
to the same scalar reference and to the unprofiled run's cohort counts.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.experiments.sweep import run_sweep
from repro.network.impairments import ImpairmentConfig
from repro.obs.profiler import KernelProfiler
from repro.sim.events import Priority
from repro.sim.kernel import Simulator


def _tier_config(
    nodes: int = 2500, *, impaired: bool = False, horizon: float = 4.0
) -> ExperimentConfig:
    """A top-tier cell kept short enough for tier-1 runtime.

    Load against a small queue keeps threshold crossings, HELP floods
    and migrations active from the first second, so the trace witnesses
    the cohort paths (flood fan-out deliveries) thousands of times.
    """
    return ExperimentConfig(
        protocol="realtor",
        topology="torus",
        nodes=nodes,
        arrival_rate=0.3 * nodes,
        queue_capacity=12.0,
        horizon=horizon,
        seed=11,
        trace=True,
        impairments=(
            ImpairmentConfig(loss_rate=0.02, jitter=0.001) if impaired else None
        ),
    )


def _traced_run(cfg: ExperimentConfig, *, batching: bool, profile=None):
    system = build_system(cfg)
    assert system.sim.cohort_batching  # default on
    system.sim.set_cohort_batching(batching)
    system.run(profile=profile)
    trace = [
        (rec.time, rec.category, tuple(sorted(rec.payload.items())))
        for rec in system.sim.trace.records
    ]
    result = dataclasses.asdict(system.result())
    # cohort_* extras are dispatch accounting, not observational output:
    # they *must* differ between the batched and scalar strategies
    for key in list(result["extra"]):
        if key.startswith("cohort"):
            del result["extra"][key]
    return trace, result, system.sim.events_executed


def _assert_identical(run_a, run_b, label: str) -> None:
    trace_a, result_a, executed_a = run_a
    trace_b, result_b, executed_b = run_b
    assert executed_a == executed_b, f"{label}: events_executed differ"
    assert len(trace_a) == len(trace_b), f"{label}: trace length differs"
    for i, (rec_a, rec_b) in enumerate(zip(trace_a, trace_b)):
        assert rec_a == rec_b, f"{label}: trace diverges at record {i}"
    assert result_a == result_b, f"{label}: result fields differ"


class TestBatchedEqualsScalar:
    def test_2500_nodes_bit_identical(self):
        cfg = _tier_config()
        batched = _traced_run(cfg, batching=True)
        scalar = _traced_run(cfg, batching=False)
        assert batched[2] > 5_000  # the run is substantial
        _assert_identical(batched, scalar, "clean 2500-node tier")

    def test_2500_nodes_impaired_bit_identical(self):
        """Loss/jitter/dup verdicts draw per delivery in schedule order —
        batching must not reorder or coalesce the draws."""
        cfg = _tier_config(impaired=True)
        batched = _traced_run(cfg, batching=True)
        scalar = _traced_run(cfg, batching=False)
        _assert_identical(batched, scalar, "impaired 2500-node tier")

    def test_impairments_actually_change_the_run(self):
        _, clean, _ = _traced_run(_tier_config(), batching=True)
        _, lossy, _ = _traced_run(_tier_config(impaired=True), batching=True)
        assert clean != lossy


class TestProfiledLockstep:
    def test_profiled_run_bit_identical_to_plain(self):
        """The profiler brackets the batched loop's dispatches; what that
        loop executes must still match the scalar reference exactly."""
        cfg = _tier_config(nodes=250, horizon=10.0)
        scalar = _traced_run(cfg, batching=False)
        profile = KernelProfiler()
        profiled = _traced_run(cfg, batching=True, profile=profile)
        _assert_identical(scalar, profiled, "profiled batched vs scalar")
        assert profile.report().events_executed == profiled[2]


class TestSweepEquivalence:
    def test_serial_vs_parallel_identical_at_2500_nodes(self):
        base = ExperimentConfig(
            topology="torus", nodes=2500, horizon=2.0, seed=3
        )
        protocols = ["realtor", "pure-push"]
        rates = [125.0]
        serial = run_sweep(protocols, rates, base, parallel=False)
        parallel = run_sweep(
            protocols, rates, base, parallel=True, max_workers=2
        )
        for proto in protocols:
            for rate in rates:
                assert dataclasses.asdict(serial[proto][rate]) == dataclasses.asdict(
                    parallel[proto][rate]
                ), f"{proto}@{rate} differs serial vs parallel"


class TestKernelCohortMechanics:
    """Unit-level pins for the cohort drain itself."""

    def test_cohort_handled_in_one_batch_call(self):
        sim = Simulator()
        calls = []
        scalar_calls = []

        def fn(i):
            scalar_calls.append(i)

        sim.register_batch(fn, lambda cohort: calls.append(list(cohort)))
        for i in range(5):
            sim.at(1.0, fn, i)
        sim.run()
        assert calls == [[(0,), (1,), (2,), (3,), (4,)]]
        assert scalar_calls == []  # the batch hook replaced the scalar body
        assert sim.events_executed == 5

    def test_lone_event_runs_scalar(self):
        sim = Simulator()
        batched, scalar = [], []

        def fn(i):
            scalar.append(i)

        sim.register_batch(fn, lambda cohort: batched.extend(cohort))
        sim.at(1.0, fn, 0)
        sim.at(2.0, fn, 1)  # different instants: never a cohort
        sim.run()
        assert scalar == [0, 1]
        assert batched == []

    def test_priority_splits_cohorts(self):
        sim = Simulator()
        calls = []
        fn = lambda i: None  # noqa: E731
        sim.register_batch(fn, lambda cohort: calls.append(list(cohort)))
        sim.at(1.0, fn, 0, priority=Priority.STATE)
        sim.at(1.0, fn, 1, priority=Priority.STATE)
        sim.at(1.0, fn, 2, priority=Priority.MESSAGE)
        sim.at(1.0, fn, 3, priority=Priority.MESSAGE)
        sim.run()
        assert calls == [[(0,), (1,)], [(2,), (3,)]]

    def test_interleaved_callbacks_split_cohorts(self):
        """Only *consecutive* same-callback runs group — an interleaved
        other callback at the same instant splits the cohort, keeping
        execution order exactly the scalar seq order."""
        sim = Simulator()
        order = []

        def a(i):
            order.append(("a-scalar", i))

        def b(i):
            order.append(("b", i))

        sim.register_batch(a, lambda cohort: order.append(("a-batch", list(cohort))))
        sim.at(1.0, a, 0)
        sim.at(1.0, a, 1)
        sim.at(1.0, b, 2)
        sim.at(1.0, a, 3)
        sim.at(1.0, a, 4)
        sim.run()
        assert order == [
            ("a-batch", [(0,), (1,)]),
            ("b", 2),
            ("a-batch", [(3,), (4,)]),
        ]

    def test_cancelled_events_skipped_at_drain(self):
        sim = Simulator()
        seen = []
        fn = lambda i: None  # noqa: E731
        sim.register_batch(fn, lambda cohort: seen.extend(cohort))
        events = [sim.at(1.0, fn, i) for i in range(6)]
        sim.cancel(events[0])  # cohort leader cancelled
        sim.cancel(events[3])  # mid-cohort cancelled
        sim.run()
        assert seen == [(1,), (2,), (4,), (5,)]
        assert sim.events_executed == 4

    def test_events_scheduled_by_batch_run_after_cohort(self):
        """Same-instant events created by a batch member carry later
        seqs — they run after the cohort, as in the scalar path."""
        sim = Simulator()
        order = []

        def child(i):
            order.append(("child", i))

        def fn(i):
            pass

        def batch(cohort):
            order.append(("batch", list(cohort)))
            for (i,) in cohort:
                sim.at(sim.now, child, i)

        sim.register_batch(fn, batch)
        sim.at(1.0, fn, 0)
        sim.at(1.0, fn, 1)
        sim.run()
        assert order == [
            ("batch", [(0,), (1,)]),
            ("child", 0),
            ("child", 1),
        ]

    def test_max_events_budget_respected_by_batching(self):
        sim = Simulator()
        seen = []
        fn = lambda i: None  # noqa: E731
        sim.register_batch(fn, lambda cohort: seen.extend(cohort))
        for i in range(10):
            sim.at(1.0, fn, i)
        sim.run(max_events=4)
        assert seen == [(0,), (1,), (2,), (3,)]
        assert sim.events_executed == 4

    def test_toggle_forces_scalar_path(self):
        sim = Simulator()
        batched, scalar = [], []

        def fn(i):
            scalar.append(i)

        sim.register_batch(fn, lambda cohort: batched.extend(cohort))
        sim.set_cohort_batching(False)
        for i in range(3):
            sim.at(1.0, fn, i)
        sim.run()
        assert scalar == [0, 1, 2]
        assert batched == []


class TestFinalizerSemantics:
    def test_finalizers_run_once_on_clean_run(self):
        sim = Simulator()
        ran = []
        sim.add_finalizer(lambda: ran.append(1))
        sim.at(1.0, lambda: None)
        sim.run()
        sim.run()
        assert ran == [1]

    def test_profiled_run_finalizers_on_exception(self):
        sim = Simulator()
        ran = []
        sim.add_finalizer(lambda: ran.append("f"))
        sim.at(1.0, lambda: (_ for _ in ()).throw(ValueError("x")))
        with pytest.raises(ValueError):
            sim.run(profile=KernelProfiler())
        assert ran == ["f"]
        assert not sim._finalizers


class TestRoundDriver:
    def test_members_fire_in_join_order_once_per_round(self):
        sim = Simulator()
        order = []
        sim.shared_periodic(1.0, lambda: order.append("a"))
        sim.shared_periodic(1.0, lambda: order.append("b"))
        sim.run(until=2.5)
        assert order == ["a", "b", "a", "b"]

    def test_one_heap_entry_per_round(self):
        sim = Simulator()
        for i in range(100):
            sim.shared_periodic(1.0, lambda: None)
        # one driver event, not one hundred timer events
        assert len(sim.queue) == 1

    def test_distinct_cadences_get_distinct_drivers(self):
        sim = Simulator()
        ticks = {"fast": 0, "slow": 0}

        def bump(key):
            ticks[key] += 1

        sim.shared_periodic(1.0, lambda: bump("fast"))
        sim.shared_periodic(2.0, lambda: bump("slow"))
        sim.run(until=4.5)
        assert ticks == {"fast": 4, "slow": 2}

    def test_stop_removes_member_and_last_leave_cancels_event(self):
        sim = Simulator()
        fired = []
        m1 = sim.shared_periodic(1.0, lambda: fired.append(1))
        m2 = sim.shared_periodic(1.0, lambda: fired.append(2))
        sim.run(until=1.5)
        assert fired == [1, 2]
        m1.stop()
        assert m1.stopped and not m2.stopped
        sim.run(until=2.5)
        assert fired == [1, 2, 2]
        m2.stop()
        assert len(sim.queue) == 0  # driver event cancelled with last member
        sim.run(until=10.0)
        assert fired == [1, 2, 2]

    def test_rejoin_after_dormancy_rearms(self):
        sim = Simulator()
        fired = []
        m = sim.shared_periodic(1.0, lambda: fired.append("x"))
        m.stop()
        sim.run(until=3.0)
        assert fired == []
        sim.shared_periodic(1.0, lambda: fired.append("y"))
        sim.run(until=5.5)
        assert fired == ["y", "y"]  # rearmed from t=3 -> fires at 4, 5

    def test_member_table_compacts_under_churn(self):
        sim = Simulator()
        members = [sim.shared_periodic(1.0, lambda: None) for _ in range(64)]
        for m in members[:60]:
            m.stop()
        driver = next(iter(sim._round_drivers.values()))
        assert driver.members == 4
        assert len(driver._members) < 64  # dead cells filtered


class TestHeapCompaction:
    def test_compaction_mid_run_keeps_kernel_loop_alive(self):
        """compact() rebuilds in place; the run loop's heap alias must
        keep seeing events scheduled after a mid-run compaction."""
        sim = Simulator()
        fired = []

        def churn():
            dead = [sim.at(50.0 + i, lambda: None) for i in range(300)]
            for ev in dead:
                sim.cancel(ev)
            sim.at(2.0, fired.append, "after-compaction")

        sim.at(1.0, churn)
        sim.run()
        assert fired == ["after-compaction"]

    def test_small_heaps_never_compact(self):
        sim = Simulator()
        events = [sim.at(1.0 + i, lambda: None) for i in range(10)]
        for ev in events:
            sim.cancel(ev)
        # below the compaction floor the dead entries just sit there
        assert len(sim.queue._heap) == 10
        assert len(sim.queue) == 0


class TestCohortStats:
    """The kernel's batched-dispatch accounting (RunResult "cohorts")."""

    def test_stats_account_for_every_batched_event(self):
        sim = Simulator()
        fn = lambda i: None  # noqa: E731
        sim.register_batch(fn, lambda cohort: None)
        for i in range(5):
            sim.at(1.0, fn, i)   # one cohort of 5
        for i in range(3):
            sim.at(2.0, fn, i)   # one cohort of 3
        sim.at(3.0, fn, 0)       # lone event: scalar, not a cohort
        sim.run()
        stats = sim.cohort_stats()
        assert stats["cohorts"] == 2
        assert stats["batched_events"] == 8
        assert stats["size_histogram"] == {3: 1, 5: 1}
        # histogram is self-consistent: occurrences sum to cohorts,
        # size-weighted sum to batched events
        assert sum(stats["size_histogram"].values()) == stats["cohorts"]
        assert (
            sum(s * c for s, c in stats["size_histogram"].items())
            == stats["batched_events"]
        )
        assert stats["batched_share"] == pytest.approx(8 / 9)
        assert sim.events_executed == 9

    def test_stats_zero_before_any_run(self):
        stats = Simulator().cohort_stats()
        assert stats["cohorts"] == 0
        assert stats["batched_events"] == 0
        assert stats["batched_share"] == 0.0
        assert stats["size_histogram"] == {}

    def test_stats_zero_with_batching_disabled(self):
        sim = Simulator()
        sim.set_cohort_batching(False)
        fn = lambda i: None  # noqa: E731
        sim.register_batch(fn, lambda cohort: None)
        for i in range(5):
            sim.at(1.0, fn, i)
        sim.run()
        stats = sim.cohort_stats()
        assert stats["cohorts"] == 0
        assert stats["batched_events"] == 0
        assert sim.events_executed == 5

    def test_stats_same_under_profiled_run(self):
        # the profiler times the loop that ships, cohorts included
        cfg = _tier_config(nodes=250, horizon=2.0)
        plain, profiled = build_system(cfg), build_system(cfg)
        plain.run()
        profile = KernelProfiler()
        profiled.run(profile=profile)
        assert profiled.sim.cohort_stats() == plain.sim.cohort_stats()
        assert profiled.sim.cohort_stats()["cohorts"] > 0
        assert profile.events_executed == profiled.sim.events_executed

    def test_tier_run_stats_land_on_result_extra(self):
        cfg = _tier_config(nodes=250, horizon=2.0)
        system = build_system(cfg)
        system.run()
        result = system.result()
        stats = system.sim.cohort_stats()
        assert result.extra["cohorts"] == float(stats["cohorts"])
        assert result.extra["cohort_batched_events"] == float(
            stats["batched_events"]
        )
        assert result.extra["cohort_batched_share"] == pytest.approx(
            stats["batched_share"]
        )
        assert stats["batched_events"] > 0  # the tier really batches
