"""Cohort batching: the vectorized single-run fast path stays bit-identical.

An event is one call unless its sender posted it whole: a flood posts
its receivers as one agenda entry (``Simulator.after_each``), which the
run loop hands to the callback's registered batch hook in one call.
Same-key events scheduled one by one run one call each, in seq order,
and a posted entry is never merged with its neighbours.  These tests pin
that batched execution is *observationally identical* to the scalar
reference, ``set_cohort_batching(False)``: same trace, same result
fields, same ``events_executed``, at the 2500-node scaling tier, with
impairments on and off, across serial/parallel sweep execution, under a
``max_events`` budget that ends inside an entry, and when a member
crashes or unregisters a later one.  A profiled run is the same loop
with a timing bracket per dispatch, so it is held to the same scalar
reference and to the unprofiled run's cohort counts.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig, paper_config
from repro.experiments.runner import build_system
from repro.experiments.sweep import run_sweep
from repro.network.faults import FaultManager
from repro.network.generators import paper_topology
from repro.network.impairments import ImpairmentConfig
from repro.network.transport import Transport
from repro.obs.profiler import KernelProfiler
from repro.protocols.base import ProtocolConfig
from repro.sim.events import Priority
from repro.sim.kernel import SimulationError, Simulator


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


def _traced_run(
    cfg: ExperimentConfig, *, batching: bool, profile=None, slice_events=None
):
    """One traced run -> (trace, result, events_executed, agenda counts).

    With ``slice_events`` the horizon is reached in ``max_events`` slices
    (which end inside cohorts) and the agenda is sampled between them.
    """
    system = build_system(cfg)
    sim = system.sim
    assert sim.cohort_batching  # default on
    sim.set_cohort_batching(batching)
    samples = []
    if slice_events is None:
        system.run(profile=profile)
    else:
        while (sim.queue.peek_time() or cfg.horizon) < cfg.horizon:
            sim.run(max_events=slice_events)
            samples.append((sim.now, sim.events_executed, len(sim.queue)))
    agenda = (sim.queue._next_seq, len(sim.queue), samples)
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
    return trace, result, sim.events_executed, agenda


def _assert_identical(run_a, run_b, label: str) -> None:
    trace_a, result_a, executed_a, agenda_a = run_a
    trace_b, result_b, executed_b, agenda_b = run_b
    assert executed_a == executed_b, f"{label}: events_executed differ"
    assert agenda_a == agenda_b, f"{label}: seq / len(queue) counts differ"
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
        clean = _traced_run(_tier_config(), batching=True)[1]
        lossy = _traced_run(_tier_config(impaired=True), batching=True)[1]
        assert clean != lossy

    @pytest.mark.parametrize("slice_events", [None, 7])
    def test_push_1_paper_cell_bit_identical(self, slice_events):
        """Figure 6's dominating curve: 25 nodes flooding once a second,
        every flood one pre-formed agenda entry."""
        cfg = paper_config("push-1", 6.0, seed=4, horizon=40.0).with_(trace=True)
        batched = _traced_run(cfg, batching=True, slice_events=slice_events)
        scalar = _traced_run(cfg, batching=False, slice_events=slice_events)
        assert batched[2] > 3_000
        _assert_identical(batched, scalar, f"push-1 cell, slices={slice_events}")

    @pytest.mark.parametrize("slice_events", [None, 997])
    def test_2500_nodes_network_scope_bit_identical(self, slice_events):
        """Whole-overlay floods: 2499 receivers behind one agenda entry,
        and a budget slice that ends inside it several times over."""
        cfg = dataclasses.replace(
            _tier_config(horizon=0.5),
            arrival_rate=250.0,
            queue_capacity=6.0,
            protocol_config=ProtocolConfig(scope="network"),
            prime_views=False,  # 2500 x 2499 primed entries are the build
        )
        batched = _traced_run(cfg, batching=True, slice_events=slice_events)
        scalar = _traced_run(cfg, batching=False, slice_events=slice_events)
        assert batched[2] > 30_000
        _assert_identical(batched, scalar, f"network scope, slices={slice_events}")


    @pytest.mark.parametrize("slice_events", [None, 97])
    def test_latency_floods_bit_identical(self, slice_events):
        """Per-hop latency: each flood posts one entry per hop count."""
        cfg = dataclasses.replace(
            _tier_config(nodes=400, horizon=2.0),
            per_hop_latency=0.01,
            protocol_config=ProtocolConfig(scope="network"),
            prime_views=False,
        )
        batched = _traced_run(cfg, batching=True, slice_events=slice_events)
        scalar = _traced_run(cfg, batching=False, slice_events=slice_events)
        assert batched[2] > 5_000
        _assert_identical(batched, scalar, f"latency floods, slices={slice_events}")


class TestProfiledLockstep:
    def test_profiled_push_1_files_floods_under_deliver(self):
        """A pre-formed cohort reports under the callback it stands for,
        with its event count — not under the kernel's marker."""
        system = build_system(paper_config("push-1", 6.0, seed=4, horizon=40.0))
        profile = KernelProfiler()
        system.run(profile=profile)
        assert profile.events_executed == system.sim.events_executed
        transport = system.transport
        deliveries = profile.by_callback["Transport._deliver"]
        assert deliveries.events == (
            transport.delivered_messages + transport.dropped_messages
        )
        assert deliveries.seconds > 0.0
        assert not any("Cohort" in name for name in profile.by_callback)

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
    """Unit-level pins for the one dispatch rule: an event is one call
    unless its sender posted it whole with ``after_each``."""

    def test_cohort_handled_in_one_batch_call(self):
        sim = Simulator()
        calls = []
        scalar_calls = []

        def fn(i):
            scalar_calls.append(i)

        sim.register_batch(fn, lambda cohort: calls.append(list(cohort)))
        sim.after_each(1.0, fn, [(i,) for i in range(5)])
        for i in range(5, 8):
            sim.at(1.0, fn, i)  # same key, scheduled one by one
        sim.run()
        assert calls == [[(0,), (1,), (2,), (3,), (4,)]]
        assert scalar_calls == [5, 6, 7]  # one call each, in seq order
        assert sim.events_executed == 8

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
        """Two entries posted at one instant run in band order, each its
        own call, like the scalar events they stand for."""
        sim = Simulator()
        calls = []
        fn = lambda i: None  # noqa: E731
        sim.register_batch(fn, lambda cohort: calls.append(list(cohort)))
        sim.after_each(1.0, fn, [(2,), (3,)], priority=Priority.MESSAGE)
        sim.after_each(1.0, fn, [(0,), (1,)], priority=Priority.STATE)
        sim.run()
        assert calls == [[(0,), (1,)], [(2,), (3,)]]

    def test_interleaved_callbacks_split_cohorts(self):
        """Every agenda entry keeps its place in seq order: a posted
        cohort, another callback and same-callback scalars at one instant
        run exactly in the order they were scheduled."""
        sim = Simulator()
        order = []

        def a(i):
            order.append(("a-scalar", i))

        def b(i):
            order.append(("b", i))

        sim.register_batch(a, lambda cohort: order.append(("a-batch", list(cohort))))
        sim.after_each(1.0, a, [(0,), (1,)])
        sim.at(1.0, b, 2)
        sim.at(1.0, a, 3)
        sim.at(1.0, a, 4)
        sim.after_each(1.0, a, [(5,), (6,)])
        sim.run()
        assert order == [
            ("a-batch", [(0,), (1,)]),
            ("b", 2),
            ("a-scalar", 3),
            ("a-scalar", 4),
            ("a-batch", [(5,), (6,)]),
        ]

    def test_cancelled_events_skipped_at_drain(self):
        """Scalar events of a batched callback are never grouped: the
        live ones run one call each and cancelled ones not at all."""
        sim = Simulator()
        seen, scalar = [], []
        fn = lambda i: scalar.append(i)  # noqa: E731
        sim.register_batch(fn, lambda cohort: seen.extend(cohort))
        events = [sim.at(1.0, fn, i) for i in range(6)]
        sim.cancel(events[0])
        sim.cancel(events[3])
        sim.run()
        assert scalar == [1, 2, 4, 5]
        assert seen == []
        assert sim.events_executed == 4
        assert sim.cohort_stats()["cohorts"] == 0

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
        sim.after_each(1.0, fn, [(0,), (1,)])
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
        sim.after_each(1.0, fn, [(i,) for i in range(10)])
        sim.run(max_events=4)
        assert seen == [(0,), (1,), (2,), (3,)]
        assert sim.events_executed == 4
        assert len(sim.queue) == 6
        sim.run()
        assert seen == [(i,) for i in range(10)]
        assert sim.events_executed == 10

    def test_toggle_forces_scalar_path(self):
        sim = Simulator()
        batched, scalar = [], []

        def fn(i):
            scalar.append(i)

        sim.register_batch(fn, lambda cohort: batched.extend(cohort))
        sim.set_cohort_batching(False)
        sim.after_each(1.0, fn, [(0,), (1,), (2,)])
        assert len(sim.queue._heap) == 3
        sim.run()
        assert scalar == [0, 1, 2]
        assert batched == []


def _mesh_transport(batching: bool = True):
    """The paper mesh wired to a fault manager the way the runner does it,
    every node logging what it receives."""
    sim = Simulator()
    sim.set_cohort_batching(batching)
    topo = paper_topology()
    faults = FaultManager(sim, topo)
    transport = Transport(
        sim,
        topo,
        is_up=faults.can_communicate,
        link_up=faults.link_up,
        liveness_version=lambda: faults.version,
    )
    received = []
    for node in topo.nodes():
        transport.register(
            node, "adv", lambda d: received.append((d.src, d.dst, d.payload))
        )
    return sim, faults, transport, received


class TestPreFormedCohort:
    """``after_each``: one agenda entry that stands for n scalar events."""

    def test_one_flood_is_four_events_and_one_heap_entry(self):
        sim, _faults, transport, received = _mesh_transport()
        seq = sim.queue._next_seq
        assert transport.flood(12, "adv", None, neighbors_only=True) == [7, 11, 13, 17]
        assert len(sim.queue) == 4
        assert len(sim.queue._heap) == 1
        assert sim.queue._next_seq == seq + 4
        sim.run()
        assert [dst for _src, dst, _p in received] == [7, 11, 13, 17]
        assert sim.events_executed == 4
        assert len(sim.queue) == 0
        assert sim.cohort_stats()["size_histogram"] == {4: 1}

    def test_latency_flood_is_one_entry_per_hop_count(self):
        """With per-hop latency the receivers at one depth arrive at one
        instant: the flood posts them as one entry each, nearest first,
        in receiver order within a depth."""
        sim, _faults, transport, received = _mesh_transport()
        transport.per_hop_latency = 0.5
        seq = sim.queue._next_seq
        assert len(transport.flood(12, "adv", None)) == 24
        assert len(sim.queue) == 24 and sim.queue._next_seq == seq + 24
        assert sorted((e[0], len(e[3].args)) for e in sim.queue._heap) == [
            (0.5, 4), (1.0, 8), (1.5, 8), (2.0, 4)
        ]
        sim.run()
        assert [dst for _src, dst, _p in received][:4] == [7, 11, 13, 17]
        assert sim.events_executed == 24
        assert sim.cohort_stats()["size_histogram"] == {4: 2, 8: 2}

    def test_scalar_reference_schedules_the_scalar_events(self):
        sim, _faults, transport, _received = _mesh_transport(batching=False)
        transport.flood(12, "adv", None, neighbors_only=True)
        assert len(sim.queue) == len(sim.queue._heap) == 4
        assert [e[3].fn for e in sim.queue._heap] == [transport._deliver] * 4

    def test_unbatched_callback_and_single_receiver_stay_scalar(self):
        sim = Simulator()
        seen = []
        sim.after_each(1.0, seen.append, [(0,), (1,), (2,)])  # no batch hook
        assert len(sim.queue._heap) == 3
        fn = lambda i: seen.append(("scalar", i))  # noqa: E731
        sim.register_batch(fn, lambda cohort: seen.append(("batch", cohort)))
        sim.after_each(2.0, fn, [(9,)])  # a cohort of one is the event itself
        sim.after_each(3.0, fn, [])
        sim.run()
        assert seen == [0, 1, 2, ("scalar", 9)]
        assert sim.events_executed == 4
        assert sim.cohort_stats()["cohorts"] == 0

    def test_rejects_what_after_rejects(self):
        sim = Simulator()
        fn = lambda i: None  # noqa: E731
        for hooked in (False, True):
            if hooked:
                sim.register_batch(fn, lambda cohort: None)
            with pytest.raises(SimulationError):
                sim.after_each(-1.0, fn, [(0,), (1,)])
            with pytest.raises(ValueError):
                sim.after_each(float("nan"), fn, [(0,), (1,)])
            with pytest.raises(ValueError):
                sim.after_each(float("inf"), fn, [(0,), (1,)])
        assert len(sim.queue) == len(sim.queue._heap) == 0
        assert sim.queue._next_seq == 0

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_budget_ending_inside_the_entry(self, budget):
        """``max_events=k`` stops after exactly k deliveries; the rest
        stays on the agenda under its original keys and goes out, in
        receiver order, on the next run."""
        sim, _faults, transport, received = _mesh_transport()
        transport.flood(12, "adv", None, neighbors_only=True)
        sim.run(max_events=budget)
        assert [dst for _src, dst, _p in received] == [7, 11, 13, 17][:budget]
        assert sim.events_executed == budget
        assert len(sim.queue) == 4 - budget
        (time, priority, seq, _ev), = sim.queue._heap
        assert (time, priority, seq) == (0.0, Priority.MESSAGE, budget)
        sim.run()
        assert [dst for _src, dst, _p in received] == [7, 11, 13, 17]
        assert sim.events_executed == 4
        assert len(sim.queue) == 0

    def test_budget_slices_match_the_scalar_reference(self):
        """Slice by slice — counts and deliveries of a two-flood instant
        cut every three events match the scalar reference; only the
        posted floods count as cohorts, and each slice takes the part of
        an entry that fits its budget."""

        def sliced(batching: bool, preformed: bool):
            sim, _faults, transport, received = _mesh_transport(batching)
            if preformed:
                transport.flood(12, "adv", "a", neighbors_only=True)
                transport.flood(6, "adv", "b", neighbors_only=True)
            else:
                for src, payload in ((12, "a"), (6, "b")):
                    for dst in transport.topo.neighbors(src):
                        sim.after(0.0, transport._deliver, src, dst, "adv", payload,
                                  0.0, priority=Priority.MESSAGE)
            log = []
            while sim.queue:
                sim.run(max_events=3)
                log.append((sim.events_executed, len(sim.queue), list(received)))
            return log, sim.cohort_stats()

        one_by_one = sliced(batching=True, preformed=False)
        posted = sliced(batching=True, preformed=True)
        scalar = sliced(batching=False, preformed=True)
        assert posted[0] == one_by_one[0] == scalar[0]
        assert one_by_one[1]["cohorts"] == scalar[1]["cohorts"] == 0
        # 4 + 4 deliveries cut every three: 3 | 1 scalar + 2 | 2
        assert posted[1]["size_histogram"] == {2: 2, 3: 1}

    @pytest.mark.parametrize("sabotage", ["crash", "unregister"])
    def test_member_silencing_a_later_member(self, sabotage):
        """Liveness and the handler table are re-read per item: the first
        receiver takes out the third, whose delivery is dropped exactly
        as the scalar loop drops it."""

        def run(batching: bool):
            sim, faults, transport, received = _mesh_transport(batching)

            def saboteur(d):
                received.append((d.src, d.dst, d.payload))
                if sabotage == "crash":
                    faults.crash(13)
                else:
                    transport.unregister(13)

            transport.register(7, "adv", saboteur)
            transport.flood(12, "adv", None, neighbors_only=True)
            sim.run()
            return (
                [dst for _src, dst, _p in received],
                transport.delivered_messages,
                transport.dropped_messages,
                sim.events_executed,
            )

        assert run(batching=True) == run(batching=False) == ([7, 11, 17], 3, 1, 4)

    def test_merges_with_adjacent_deliveries_like_scalars(self):
        """flood, unicast, flood at one instant: the same nine deliveries
        in the same order whether the floods were posted whole or
        delivery by delivery — but a posted entry is never merged with
        its neighbours: two cohorts of four around a scalar unicast, and
        none at all when nothing was posted whole."""

        def run(preformed: bool):
            sim, _faults, transport, received = _mesh_transport()
            sends = [(12, None), (0, 1), (6, None)]
            for src, dst in sends:
                if dst is not None:
                    transport.unicast(src, dst, "adv", "u")
                elif preformed:
                    transport.flood(src, "adv", "f", neighbors_only=True)
                else:
                    for n in transport.topo.neighbors(src):
                        sim.after(0.0, transport._deliver, src, n, "adv", "f", 0.0,
                                  priority=Priority.MESSAGE)
            heap_entries = len(sim.queue._heap)
            assert len(sim.queue) == 9
            sim.run()
            return heap_entries, received, sim.events_executed, sim.cohort_stats()

        whole, one_by_one = run(preformed=True), run(preformed=False)
        assert whole[0] == 3 and one_by_one[0] == 9
        assert whole[1:3] == one_by_one[1:3]
        assert whole[3]["size_histogram"] == {4: 2}
        assert one_by_one[3]["cohorts"] == 0

    def test_switching_batching_off_scalarizes_the_agenda(self):
        """The scalar loop never meets a pre-formed entry: turning the
        switch off turns those already posted into their scalar events."""
        sim, _faults, transport, received = _mesh_transport()
        sim.at(0.0, lambda: None)  # seq 0, a bystander
        transport.flood(12, "adv", None, neighbors_only=True)
        sim.set_cohort_batching(False)
        assert len(sim.queue) == len(sim.queue._heap) == 5
        assert sorted(e[2] for e in sim.queue._heap) == [0, 1, 2, 3, 4]
        sim.run()
        assert [dst for _src, dst, _p in received] == [7, 11, 13, 17]
        assert sim.events_executed == 5
        assert sim.cohort_stats()["cohorts"] == 0


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
        sim.after_each(1.0, fn, [(i,) for i in range(5)])  # one cohort of 5
        sim.after_each(2.0, fn, [(i,) for i in range(3)])  # one cohort of 3
        sim.after_each(3.0, fn, [(0,)])  # a posted one: the scalar event
        for i in range(4):
            sim.at(4.0, fn, i)  # scheduled one by one: four scalar calls
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
        assert sim.events_executed == 13

    def test_stats_zero_before_any_run(self):
        stats = Simulator().cohort_stats()
        assert stats["cohorts"] == 0
        assert stats["batched_events"] == 0
        assert stats["size_histogram"] == {}

    def test_stats_zero_with_batching_disabled(self):
        sim = Simulator()
        sim.set_cohort_batching(False)
        fn = lambda i: None  # noqa: E731
        sim.register_batch(fn, lambda cohort: None)
        sim.after_each(1.0, fn, [(i,) for i in range(5)])
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
        assert "cohort_batched_share" not in result.extra
        assert stats["batched_events"] > 0  # the tier really batches
