"""LiveTransport: delivery semantics, both backends.

The assertions mirror the simulated transport's contract — same scope
rules, same counter names, same cost hooks — plus the one guarantee the
live layer adds on top: payload *object identity* survives the trip,
because the paper's admission protocol settles migrations by mutating a
shared Task (see the transport module docstring).  ``TestDifferential``
holds the two runtimes against each other send by send.
"""

import asyncio
from functools import partial

import numpy as np
import pytest

from repro.live.scheduler import LiveScheduler
from repro.live.transport import LiveTransport
from repro.network import generators
from repro.network.faults import FaultManager
from repro.network.transport import CostModel, Transport, UnicastCostMode
from repro.node.host import Host
from repro.node.resources import ResourcePool
from repro.node.task import Task, TaskOutcome, TaskStatus
from repro.sim.kernel import Simulator
from tests.oracles import is_connected, live_topology


#: Section 6's LAN accounting: a switched unicast and an IP multicast
#: each cost one wire message
LAN = partial(
    CostModel,
    unicast_mode=UnicastCostMode.FIXED,
    fixed_unicast_cost=1.0,
    flood_cost_override=1.0,
)


def go(coro):
    return asyncio.run(coro)


async def settle(sim: LiveScheduler) -> None:
    """Fire what is due on the agenda, then poll for UDP reads.

    A few virtual microseconds of ``sim.run`` fire every ``inproc``
    delivery that is due; the non-zero sleeps force real selector polls
    so loopback datagrams are drained even on a loaded CI machine (~20 ms).
    """
    await sim.run(until=sim.now + 5e-6)
    for _ in range(10):
        await asyncio.sleep(0.002)


def make(backend: str, topo=None, **kwargs) -> LiveTransport:
    sim = LiveScheduler(time_scale=1000.0)
    topo = topo if topo is not None else generators.full_mesh(4)
    return LiveTransport(sim, topo, backend=backend, latency=0.0, **kwargs)


class TestBackends:
    @pytest.mark.parametrize("backend", ["inproc", "udp"])
    def test_unicast_delivers_and_counts(self, backend):
        async def run():
            t = make(backend)
            got = []
            t.register(1, "PING", got.append)
            await t.start()
            try:
                assert t.unicast(0, 1, "PING", {"x": 1}) is True
                await settle(t.sim)
            finally:
                await t.aclose()
            return t, got

        t, got = go(run())
        assert len(got) == 1
        d = got[0]
        assert (d.src, d.dst, d.kind, d.payload) == (0, 1, "PING", {"x": 1})
        assert t.sent_messages == 1 and t.delivered_messages == 1
        assert t.dropped_messages == 0

    @pytest.mark.parametrize("backend", ["inproc", "udp"])
    def test_payload_object_identity_preserved(self, backend):
        # the pin for the udp side-table: a mutation by the receiver is
        # visible to the sender, exactly as in the simulator
        async def run():
            t = make(backend)
            payload = {"granted": False}
            t.register(2, "REQ", lambda d: d.payload.update(granted=True))
            await t.start()
            try:
                t.unicast(0, 2, "REQ", payload)
                await settle(t.sim)
            finally:
                await t.aclose()
            return payload

        assert go(run())["granted"] is True

    @pytest.mark.parametrize("backend", ["inproc", "udp"])
    def test_clean_close_is_idempotent(self, backend):
        async def run():
            t = make(backend)
            await t.start()
            await t.aclose()
            await t.aclose()
            return t.node_task_count

        assert go(run()) == 0


class TestWireDelay:
    """Every wire delay — the ``inproc`` latency, per-hop latency — is an
    event on the scheduler's agenda: the delivery itself, or ahead of the
    socket."""

    # Wall budgets here are >= 10x the worst stall measured on the CI box
    # (18 ms: a timer expiry that late, or the first hop count of the
    # process before start() paid it ahead of the clock).

    @pytest.mark.parametrize("backend", ["inproc", "udp"])
    def test_three_hop_unicast_waits_out_per_hop_and_wire_latency(self, backend):
        async def run():
            sim = LiveScheduler(time_scale=4.0)
            t = LiveTransport(
                sim, generators.ring(8), backend=backend,
                latency=0.02, per_hop_latency=0.05,
            )
            got = []
            t.register(3, "PING", got.append)
            await t.start()
            try:
                sim.after(0.1, t.unicast, 0, 3, "PING", None)
                # 250 ms of wall clock, 180 of them after the arrival is due
                await sim.run(until=1.0)
                await settle(sim)
            finally:
                await t.aclose()
            return got

        (d,) = go(run())
        floor = 3 * 0.05 + (0.02 if backend == "inproc" else 0.0)
        assert d.delivered_at - d.sent_at >= floor

    def test_start_pays_one_time_routing_costs_iff_hop_counts_are_read(self):
        async def rows_after_start(**kwargs):
            t = LiveTransport(
                LiveScheduler(), generators.ring(8),
                cost_model=CostModel(UnicastCostMode.FIXED), **kwargs,
            )
            await t.start()
            await t.aclose()
            return t.live_router().rows_computed

        assert go(rows_after_start(per_hop_latency=0.05)) == 1
        assert go(rows_after_start()) == 0  # the paper's accounting: no routing

    def test_inproc_latency_keeps_fifo_order_per_receiver(self):
        async def run():
            sim = LiveScheduler(time_scale=10.0)  # until=2.0 is 200 ms
            t = LiveTransport(sim, generators.full_mesh(4), latency=0.5)
            got = []
            t.register(1, "SEQ", got.append)
            await t.start()
            try:
                for i in range(50):
                    t.unicast((0, 2, 3)[i % 3], 1, "SEQ", i)
                await sim.run(until=2.0)
                await settle(sim)
            finally:
                await t.aclose()
            return got

        got = go(run())
        assert [d.payload for d in got] == list(range(50))
        assert all(d.delivered_at - d.sent_at >= 0.5 for d in got)

    def test_close_returns_with_messages_still_on_the_agenda(self):
        # the agenda only advances inside scheduler.run(): a close that
        # waited for what is on it would hang here
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            t = LiveTransport(sim, generators.full_mesh(4), latency=0.5)
            got = []
            t.register(1, "PING", got.append)
            await t.start()
            assert t.unicast(0, 1, "PING", None) is True
            on_agenda = sim.pending
            await asyncio.wait_for(t.aclose(), 1.0)
            await sim.run(until=1.0)  # the late delivery finds no receiver
            return t, got, on_agenda

        t, got, on_agenda = go(run())
        assert on_agenda == 1 and got == []
        assert t.node_task_count == 0 and t.dropped_messages == 1


class TestDatagramObserver:
    def test_a_handler_sees_a_due_completion_the_run_slept_through(self):
        # A completion is no event: the scheduler sleeps toward the event
        # at t=60 past it.  A datagram's handler runs outside the agenda;
        # reading through the host retires what is due by the live clock,
        # so it sees the task done and its extra resource (what
        # demand_means draws) released.
        async def run():
            sim = LiveScheduler(time_scale=1.0)
            t = LiveTransport(sim, generators.full_mesh(2), backend="udp", latency=0.0)
            await t.start()
            host = Host(sim, 1, capacity=100.0, pool=ResourcePool.of(gpu=1.0))
            task = Task(size=0.01, arrival_time=0.0, origin=1, demand={"gpu": 1.0})
            assert host.try_accept(task, TaskOutcome.LOCAL) == 0.01
            seen = []

            def handler(_delivery):
                gpu = host.availability_vector()["gpu"]
                seen.append((task.status, gpu, sim.wakeups))
                sim.stop()

            t.register(1, "PROBE", handler)
            sim.at(60.0, lambda: None)
            running = asyncio.create_task(sim.run())
            await asyncio.sleep(0.05)  # 50 virtual ms: the completion is due
            assert t.unicast(0, 1, "PROBE", None) is True
            await asyncio.wait_for(running, 5.0)
            await t.aclose()
            return seen, task

        seen, task = go(run())
        assert seen == [(TaskStatus.COMPLETED, 1.0, 0)]  # no wake ran it
        assert task.completed_time == 0.01


class TestScopeAndLiveness:
    def test_unicast_to_down_node_drops(self):
        async def run():
            t = make("inproc", is_up=lambda n: n != 3)
            got = []
            t.register(3, "PING", got.append)
            await t.start()
            try:
                assert t.unicast(0, 3, "PING", None) is False
                assert t.unicast(3, 0, "PING", None) is False  # down src
                await settle(t.sim)
            finally:
                await t.aclose()
            return t, got

        t, got = go(run())
        assert got == []
        assert t.dropped_messages == 1  # down dst; a down src never sends

    def test_flood_scopes(self):
        async def run():
            t = make("inproc", topo=generators.ring(5))
            seen = {n: [] for n in range(5)}
            for n in range(5):
                t.register(n, "ADV", seen[n].append)
            await t.start()
            try:
                neighbours = t.flood(0, "ADV", None, neighbors_only=True)
                everyone = t.flood(0, "ADV", None)
                await settle(t.sim)
            finally:
                await t.aclose()
            return neighbours, everyone, seen

        neighbours, everyone, seen = go(run())
        assert sorted(neighbours) == [1, 4]  # ring neighbours of 0
        assert sorted(everyone) == [1, 2, 3, 4]
        assert seen[0] == []  # no self-delivery
        assert len(seen[1]) == 2 and len(seen[3]) == 1

    def test_multicast_explicit_set(self):
        async def run():
            t = make("inproc")
            seen = {n: [] for n in range(4)}
            for n in range(4):
                t.register(n, "M", seen[n].append)
            await t.start()
            try:
                receivers = t.multicast(0, [2, 3, 0, 2], "M", None)
                await settle(t.sim)
            finally:
                await t.aclose()
            return receivers, seen

        receivers, seen = go(run())
        assert receivers == [2, 3]  # deduped, sorted, self excluded
        assert len(seen[2]) == 1 and len(seen[3]) == 1 and seen[1] == []

    def test_unregistered_kind_drops(self):
        async def run():
            t = make("inproc")
            await t.start()
            try:
                t.unicast(0, 1, "NOBODY-LISTENS", None)
                await settle(t.sim)
            finally:
                await t.aclose()
            return t.dropped_messages

        assert go(run()) == 1


class TestAccounting:
    def test_cost_sink_charged_per_logical_send(self):
        charges = []

        async def run():
            t = make(
                "inproc",
                cost_model=LAN(),
                on_cost=lambda kind, cost: charges.append((kind, cost)),
            )
            t.register(1, "X", lambda d: None)
            await t.start()
            try:
                t.unicast(0, 1, "X", None)
                t.flood(0, "X", None)
                await settle(t.sim)
            finally:
                await t.aclose()

        go(run())
        # LAN: switched unicast = 1 message, IP multicast = 1
        assert charges == [("X", 1.0), ("X", 1.0)]

    def test_unknown_backend_rejected(self):
        sim = LiveScheduler()
        with pytest.raises(ValueError):
            LiveTransport(sim, generators.full_mesh(3), backend="carrier-pigeon")


TOPOLOGIES = {
    "mesh": lambda: generators.mesh(3, 3),
    "ring": lambda: generators.ring(6),
    "scale-free": lambda: generators.preferential_attachment(
        12, 2, np.random.default_rng(7)
    ),
}


def fault_epochs(topo):
    """Crash the hub, compromise a node, cut a leaf off, restore one link."""
    hub = max(topo.nodes(), key=topo.degree)
    spy = next(n for n in reversed(topo.nodes()) if n != hub)
    leaf = min((n for n in topo.nodes() if n not in (hub, spy)), key=topo.degree)
    cut = [link for link in topo.links() if leaf in link]
    return [
        lambda f: None,
        lambda f: f.crash(hub),
        lambda f: f.compromise(spy),
        lambda f: [f.fail_link(*link) for link in cut],
        lambda f: f.restore_link(*cut[-1]),
    ]


def wired(transport_cls, sim, topo, cost_model, **kwargs):
    """One side of the comparison, wired as ``runner.assemble`` wires it."""
    faults = FaultManager(sim, topo)
    charges = []
    transport = transport_cls(
        sim,
        topo,
        is_up=faults.can_communicate,
        link_up=faults.link_up,
        liveness_version=lambda: faults.version,
        cost_model=cost_model,
        on_cost=lambda kind, cost: charges.append((kind, cost)),
        **kwargs,
    )
    for n in topo.nodes():
        for kind in "UFM":
            transport.register(n, kind, lambda d: None)
    return transport, faults, charges


def probe(t, charges):
    """Every send shape from every node, with no delivery in between.

    Arrivals land later (the next kernel or scheduler run, a socket
    read), so the counters read here are the send path's own.
    """
    nodes = t.topo.nodes()
    sent, dropped = t.sent_messages, t.dropped_messages
    del charges[:]
    return {
        "unicast": [t.unicast(s, d, "U", None) for s in nodes for d in nodes if s != d],
        "flood": [t.flood(s, "F", None) for s in nodes],
        "scoped": [t.flood(s, "F", None, neighbors_only=True) for s in nodes],
        "multicast": [t.multicast(s, nodes[::2], "M", None) for s in nodes],
        "charges": list(charges),
        "sent": t.sent_messages - sent,
        "dropped": t.dropped_messages - dropped,
    }


class TestDifferential:
    """`Transport` and `LiveTransport` decide every send alike."""

    @pytest.mark.parametrize("backend", ["inproc", "udp"])
    @pytest.mark.parametrize("family", sorted(TOPOLOGIES))
    @pytest.mark.parametrize(
        "cost_model", [CostModel, pytest.param(LAN, id="LanCosts")]
    )
    def test_same_verdicts_receivers_charges_and_counters(
        self, cost_model, family, backend
    ):
        sim = Simulator()
        reference, faults, charges = wired(
            Transport, sim, TOPOLOGIES[family](), cost_model()
        )
        expected, arrived, partitioned = [], [], False
        for epoch in fault_epochs(reference.topo):
            epoch(faults)
            partitioned |= not is_connected(live_topology(faults))
            expected.append(probe(reference, charges))
            sim.run()
            arrived.append(
                reference.delivered_messages + reference.dropped_messages
            )
        assert partitioned  # or the comparison is idle

        async def run():
            live, faults, charges = wired(
                LiveTransport, LiveScheduler(time_scale=1000.0),
                TOPOLOGIES[family](), cost_model(), backend=backend, latency=0.0,
            )
            observed = []
            await live.start()
            try:
                for epoch, total in zip(fault_epochs(live.topo), arrived):
                    epoch(faults)
                    observed.append(probe(live, charges))
                    # the next fault must not catch this epoch in flight
                    for _ in range(1000):
                        if live.delivered_messages + live.dropped_messages >= total:
                            break
                        await settle(live.sim)
            finally:
                await live.aclose()
            return live, observed

        live, observed = go(run())
        for n, (want, got) in enumerate(zip(expected, observed)):
            assert got == want, f"epoch {n}"
        assert live.delivered_messages == reference.delivered_messages
        assert live.dropped_messages == reference.dropped_messages
