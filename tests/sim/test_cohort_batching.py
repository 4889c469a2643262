"""Grouped fan-out: a flood's same-instant deliveries are one agenda event.

Every send ends in ``Transport._post(delay, messages)``, which puts the
receivers of a flood or multicast that arrive at one instant on the
agenda as one event; ``Transport._deliver`` delivers them in receiver
order, re-checking liveness and the handler table per message.  Grouping
must be observationally identical to posting one event per delivery
(``tests.oracles.post_one_by_one``), with ``events_executed`` lower by
the sum of (group size - 1): the ``grouped`` rows of
:mod:`tests.contracts` check that at the 2 500-node tier, impaired,
network-wide, with per-hop latency, under ``max_events`` slices and
profiled.  The unit tests below pin the mechanics.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import paper_config
from repro.experiments.runner import build_system
from repro.network.faults import FaultManager
from repro.network.generators import paper_topology
from repro.network.transport import Transport
from repro.obs.profiler import KernelProfiler
from repro.sim.events import Priority
from repro.sim.kernel import SimulationError, Simulator
from tests.contracts import check, observe
from tests.oracles import group_sizes, post_one_by_one


class TestBatchedEqualsScalar:
    def test_2500_nodes_bit_identical(self):
        grouped, reference = check("torus-2500.one_by_one")
        assert reference.events > 5_000  # the run is substantial
        assert max(grouped.groups) > 1  # and groups deliveries

    def test_2500_nodes_impaired_bit_identical(self):
        """Loss, jitter and duplication verdicts draw per delivery in
        schedule order: an impaired fan-out posts per receiver and must
        not reorder or coalesce the draws."""
        grouped, _reference = check("torus-2500-lossy.one_by_one")
        assert grouped.result.extra["impairment_dropped"] > 0

    def test_impairments_actually_change_the_run(self):
        assert observe("torus-2500").result != observe("torus-2500-lossy").result

    @pytest.mark.parametrize("row", ["push-1.one_by_one", "push-1.sliced"], ids=["None", "7"])
    def test_push_1_paper_cell_bit_identical(self, row):
        """Figure 6's dominating curve: 25 nodes flooding once a second,
        every flood one agenda event."""
        grouped, reference = check(row)
        assert reference.events > 3_000
        assert sum(n - 1 for n in grouped.groups) > 1_000

    @pytest.mark.parametrize(
        "row", ["network.one_by_one", "network.sliced"],
        ids=["None", "997"],
    )
    def test_2500_nodes_network_scope_bit_identical(self, row):
        """2 499 receivers behind one agenda event, which a budget slice
        runs whole."""
        grouped, reference = check(row)
        assert reference.events > 30_000
        assert max(grouped.groups) == 2499

    @pytest.mark.parametrize(
        "row", ["latency.one_by_one", "latency.sliced"],
        ids=["None", "97"],
    )
    def test_latency_floods_bit_identical(self, row):
        """Per-hop latency: each flood posts one group per hop count."""
        grouped, reference = check(row)
        assert reference.events > 5_000
        assert max(grouped.groups) > 1


class TestProfiledLockstep:
    def test_profiled_push_1_files_floods_under_deliver(self):
        """Every post is one event filed under ``Transport._deliver``; the
        messages those events carry account for every delivery."""
        system = build_system(paper_config("push-1", 6.0, seed=4, horizon=40.0))
        transport = system.transport
        sizes = group_sizes(transport)
        posts = []
        post = transport._post

        def counting_post(delay, messages):
            posts.append(delay)
            post(delay, messages)

        transport._post = counting_post
        profile = KernelProfiler()
        system.run(profile=profile)
        assert profile.events_executed == system.sim.events_executed
        deliveries = profile.by_callback["Transport._deliver"]
        assert deliveries.events == len(posts) == len(sizes)
        assert deliveries.seconds > 0.0
        assert max(sizes) > 1
        assert sum(sizes) == transport.delivered_messages + transport.dropped_messages

    def test_profiled_run_bit_identical_to_plain(self):
        """The profiler brackets the loop's dispatches; what that loop
        executes must still match the one-by-one reference exactly."""
        profiled, _reference = check("torus-250-s11.profiled")
        assert profiled.facts["profiled_events"] == profiled.events


class TestSweepEquivalence:
    def test_serial_vs_parallel_identical_at_2500_nodes(self):
        serial, _parallel = check("torus-2500-sweep.parallel")
        assert len(serial.result) == 2


def _mesh_transport(grouped: bool = True):
    """The paper mesh wired to a fault manager the way the runner does it,
    every node logging what it receives; ``grouped=False`` posts one
    event per delivery."""
    sim = Simulator()
    topo = paper_topology()
    faults = FaultManager(sim, topo)
    transport = Transport(
        sim,
        topo,
        is_up=faults.can_communicate,
        link_up=faults.link_up,
        liveness_version=lambda: faults.version,
    )
    if not grouped:
        post_one_by_one(transport)
    received = []
    for node in topo.nodes():
        transport.register(
            node, "adv", lambda d: received.append((d.src, d.dst, d.payload))
        )
    return sim, faults, transport, received


class TestKernelCohortMechanics:
    """Unit-level pins for the one dispatch rule: an event is one call,
    and a fan-out's same-instant deliveries are one event because the
    transport posted them as one."""

    def test_cohort_handled_in_one_batch_call(self):
        """A flood's group is one ``_deliver`` call; deliveries posted one
        by one at the same key run one call each, in seq order, after it."""
        sim, _faults, transport, received = _mesh_transport()
        sizes = group_sizes(transport)
        transport.flood(12, "adv", "f", neighbors_only=True)
        for dst in (7, 11):
            transport._post(0.0, [(0, dst, "adv", "s", 0.0)])
        sim.run()
        assert sizes == [4, 1, 1]
        assert received == [
            (12, 7, "f"), (12, 11, "f"), (12, 13, "f"), (12, 17, "f"),
            (0, 7, "s"), (0, 11, "s"),
        ]
        assert sim.events_executed == 3

    def test_lone_event_runs_scalar(self):
        """A unicast is one ``_deliver`` event carrying one message."""
        sim, _faults, transport, received = _mesh_transport()
        sizes = group_sizes(transport)
        transport.unicast(0, 1, "adv", "u")
        (_time, priority, _seq, ev), = sim.queue._heap
        assert ev.fn == transport._deliver and priority == Priority.MESSAGE
        assert ev.args == ([(0, 1, "adv", "u", 0.0)],)
        sim.run()
        assert received == [(0, 1, "u")]
        assert sizes == [1]
        assert sim.events_executed == 1

    def test_priority_splits_cohorts(self):
        """A group is an ordinary event: two posted at one instant run in
        band order, each its own call."""
        sim = Simulator()
        calls = []
        sim.after(1.0, calls.append, [2, 3], priority=Priority.MESSAGE)
        sim.after(1.0, calls.append, [0, 1], priority=Priority.STATE)
        sim.run()
        assert calls == [[0, 1], [2, 3]]
        assert sim.events_executed == 2

    def test_interleaved_callbacks_split_cohorts(self):
        """Every agenda event keeps its place in seq order: a flood, another
        callback, a unicast and a second flood at one instant run exactly
        in the order they were posted."""
        sim, _faults, transport, received = _mesh_transport()
        transport.flood(12, "adv", "a", neighbors_only=True)
        sim.at(0.0, received.append, "bystander", priority=Priority.MESSAGE)
        transport.unicast(0, 1, "adv", "u")
        transport.flood(6, "adv", "b", neighbors_only=True)
        sim.run()
        assert received == [
            (12, 7, "a"), (12, 11, "a"), (12, 13, "a"), (12, 17, "a"),
            "bystander",
            (0, 1, "u"),
            (6, 1, "b"), (6, 5, "b"), (6, 7, "b"), (6, 11, "b"),
        ]
        assert sim.events_executed == 4

    def test_cancelled_events_skipped_at_drain(self):
        """The kernel never groups same-key events: the live ones run one
        call each and cancelled ones not at all."""
        sim = Simulator()
        scalar = []
        events = [sim.at(1.0, scalar.append, i) for i in range(6)]
        sim.cancel(events[0])
        sim.cancel(events[3])
        sim.run()
        assert scalar == [1, 2, 4, 5]
        assert sim.events_executed == 4

    def test_events_scheduled_by_batch_run_after_cohort(self):
        """Same-instant events created by a group member carry later seqs —
        they run after the whole group, as after one event per delivery."""

        def run(grouped: bool):
            sim, _faults, transport, _received = _mesh_transport(grouped)
            order = []

            def handler(d):
                order.append(("deliver", d.dst))
                sim.at(sim.now, order.append, ("child", d.dst),
                       priority=Priority.MESSAGE)

            for node in (7, 11, 13, 17):
                transport.register(node, "adv", handler)
            transport.flood(12, "adv", None, neighbors_only=True)
            sim.run()
            return order, sim.events_executed

        grouped, reference = run(grouped=True), run(grouped=False)
        assert grouped[0] == reference[0] == [
            *(("deliver", n) for n in (7, 11, 13, 17)),
            *(("child", n) for n in (7, 11, 13, 17)),
        ]
        assert (grouped[1], reference[1]) == (1 + 4, 4 + 4)

    def test_max_events_budget_respected_by_batching(self):
        """``max_events`` counts agenda events: a budget of one runs the
        whole group and leaves the next event on the agenda."""
        sim, _faults, transport, received = _mesh_transport()
        transport.flood(12, "adv", "a", neighbors_only=True)
        sim.at(0.0, received.append, "next", priority=Priority.MESSAGE)
        sim.run(max_events=1)
        assert [dst for _src, dst, _p in received] == [7, 11, 13, 17]
        assert sim.events_executed == 1
        assert len(sim.queue) == 1
        sim.run()
        assert received[-1] == "next"
        assert sim.events_executed == 2


class TestPreFormedCohort:
    """A fan-out's group: one agenda event that delivers n messages."""

    def test_one_flood_is_four_events_and_one_heap_entry(self):
        """A flood to four neighbours is one agenda event carrying the
        four deliveries, at one seq."""
        sim, _faults, transport, received = _mesh_transport()
        seq = sim.queue._next_seq
        assert transport.flood(12, "adv", None, neighbors_only=True) == [7, 11, 13, 17]
        assert len(sim.queue) == len(sim.queue._heap) == 1
        assert sim.queue._next_seq == seq + 1
        (_time, priority, _seq, ev), = sim.queue._heap
        assert ev.fn == transport._deliver and priority == Priority.MESSAGE
        assert [dst for _src, dst, *_rest in ev.args[0]] == [7, 11, 13, 17]
        sim.run()
        assert [dst for _src, dst, _p in received] == [7, 11, 13, 17]
        assert sim.events_executed == 1
        assert len(sim.queue) == 0

    def test_latency_flood_is_one_entry_per_hop_count(self):
        """With per-hop latency the receivers at one depth arrive at one
        instant: the flood posts them as one event each, nearest first,
        in receiver order within a depth."""
        sim, _faults, transport, received = _mesh_transport()
        transport.per_hop_latency = 0.5
        seq = sim.queue._next_seq
        assert len(transport.flood(12, "adv", None)) == 24
        assert len(sim.queue) == 4 and sim.queue._next_seq == seq + 4
        assert sorted((e[0], len(e[3].args[0])) for e in sim.queue._heap) == [
            (0.5, 4), (1.0, 8), (1.5, 8), (2.0, 4)
        ]
        sim.run()
        assert [dst for _src, dst, _p in received][:4] == [7, 11, 13, 17]
        assert len(received) == 24
        assert sim.events_executed == 4

    def test_multicast_is_one_group_per_delay(self):
        """A multicast posts through the same fan-out as a flood: one group
        at zero latency, one per hop count with per-hop latency."""
        sim, _faults, transport, received = _mesh_transport()
        assert transport.multicast(12, [17, 7, 0, 13, 24], "adv", "m") == [
            0, 7, 13, 17, 24
        ]
        assert len(sim.queue._heap) == 1
        transport.per_hop_latency = 0.5
        transport.multicast(12, [17, 7, 0, 13, 24], "adv", "m")
        assert sorted((e[0], len(e[3].args[0])) for e in sim.queue._heap) == [
            (0.0, 5), (0.5, 3), (2.0, 2)
        ]
        sim.run()
        assert [dst for _src, dst, _p in received] == [0, 7, 13, 17, 24, 7, 13, 17, 0, 24]
        assert sim.events_executed == 3

    def test_scalar_reference_schedules_the_scalar_events(self):
        sim, _faults, transport, _received = _mesh_transport(grouped=False)
        transport.flood(12, "adv", None, neighbors_only=True)
        assert len(sim.queue) == len(sim.queue._heap) == 4
        assert [e[3].fn for e in sim.queue._heap] == [transport._deliver] * 4

    def test_unbatched_callback_and_single_receiver_stay_scalar(self):
        """A one-receiver fan-out is one event either way, and an empty
        one posts nothing."""
        for grouped in (True, False):
            sim, _faults, transport, received = _mesh_transport(grouped)
            transport.multicast(0, [1], "adv", "m")
            transport.multicast(0, [], "adv", "none")
            assert len(sim.queue) == len(sim.queue._heap) == 1
            sim.run()
            assert received == [(0, 1, "m")]
            assert sim.events_executed == 1

    def test_rejects_what_after_rejects(self):
        sim, _faults, transport, _received = _mesh_transport()
        messages = [(0, 1, "adv", None, 0.0)]
        with pytest.raises(SimulationError):
            transport._post(-1.0, messages)
        with pytest.raises(ValueError):
            transport._post(float("nan"), messages)
        with pytest.raises(ValueError):
            transport._post(float("inf"), messages)
        assert len(sim.queue) == len(sim.queue._heap) == 0
        assert sim.queue._next_seq == 0

    def test_budget_slices_match_the_scalar_reference(self):
        """Two floods at one instant cut every three events: the same
        deliveries in the same order as one event per delivery; the two
        groups fit one slice, the eight single events take three."""

        def sliced(grouped: bool):
            sim, _faults, transport, received = _mesh_transport(grouped)
            transport.flood(12, "adv", "a", neighbors_only=True)
            transport.flood(6, "adv", "b", neighbors_only=True)
            log = []
            while sim.queue:
                sim.run(max_events=3)
                log.append((sim.events_executed, len(sim.queue)))
            return log, received

        grouped, reference = sliced(grouped=True), sliced(grouped=False)
        assert grouped[1] == reference[1] and len(grouped[1]) == 8
        assert grouped[0] == [(2, 0)]
        assert reference[0] == [(3, 5), (6, 2), (8, 0)]

    @pytest.mark.parametrize("sabotage", ["crash", "unregister"])
    def test_member_silencing_a_later_member(self, sabotage):
        """Liveness and the handler table are re-read per item: the first
        receiver takes out the third, whose delivery is dropped exactly
        as the one-by-one reference drops it."""

        def run(grouped: bool):
            sim, faults, transport, received = _mesh_transport(grouped)

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

        assert run(grouped=True) == ([7, 11, 17], 3, 1, 1)
        assert run(grouped=False) == ([7, 11, 17], 3, 1, 4)

    def test_merges_with_adjacent_deliveries_like_scalars(self):
        """flood, unicast, flood at one instant: the same nine deliveries
        in the same order whether the floods were grouped or posted
        delivery by delivery — a group is never merged with its
        neighbours: two groups of four around a single unicast."""

        def run(grouped: bool):
            sim, _faults, transport, received = _mesh_transport(grouped)
            transport.flood(12, "adv", "f", neighbors_only=True)
            transport.unicast(0, 1, "adv", "u")
            transport.flood(6, "adv", "f", neighbors_only=True)
            heap_entries = len(sim.queue._heap)
            sim.run()
            return heap_entries, received, sim.events_executed

        grouped, reference = run(grouped=True), run(grouped=False)
        assert grouped[1] == reference[1] and len(grouped[1]) == 9
        assert (grouped[0], grouped[2]) == (3, 3)
        assert (reference[0], reference[2]) == (9, 9)


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
