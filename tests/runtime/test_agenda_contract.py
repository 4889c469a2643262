"""One agenda contract, stated once, held on both clocks.

``Simulator`` and ``LiveScheduler`` are the same
:class:`~repro.sim.kernel.Agenda` under a virtual and a wall clock, so
what a timer *means* — firing order, tracked cancellation, compaction,
the periodic helpers, finalizers, ``stop`` — is asserted here over both
classes instead of once per runtime.  What only one clock has stays in
its own file: the jumping clock and the cohort loop in ``tests/sim/``,
the late clamp and the armed waits in ``tests/live/test_scheduler.py``.

The live cases run at ``time_scale=1000`` and assert on order and
counts only, never on wall time.

A message is an agenda event on both clocks as well — ``Transport``
posts ``_deliver`` through ``sim.after`` and ``LiveTransport``'s
``inproc`` wire is that same post, one ``latency`` further out — so the
last cases here hold a delivery to the contract a timer is held to.
"""

import asyncio

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.live import LiveConfig, LiveRuntime
from repro.live.scheduler import LiveScheduler
from repro.live.transport import LiveTransport
from repro.network import generators
from repro.network.transport import Transport
from repro.runtime.api import Priority
from repro.sim.events import Event
from repro.sim.kernel import Agenda, PeriodicTimer, RoundMembership, Simulator


@pytest.fixture(
    params=[Simulator, lambda: LiveScheduler(time_scale=1000.0)],
    ids=["sim", "live"],
)
def sched(request) -> Agenda:
    return request.param()


def drive(sched: Agenda, until=None) -> None:
    """Run the agenda on whichever clock it has."""
    if isinstance(sched, LiveScheduler):
        asyncio.run(sched.run(until))
    else:
        sched.run(until)


def heap_entries(sched: Agenda):
    """(heap length, of which not cancelled) — what ``len(queue)`` must track."""
    heap = sched.queue._heap
    return len(heap), sum(1 for entry in heap if not entry[3].cancelled)


def test_fires_in_time_priority_seq_order(sched):
    order = []
    sched.at(0.2, order.append, "later instant")
    sched.at(0.1, order.append, "second")
    sched.at(0.1, order.append, "first", priority=-5)
    sched.at(0.1, order.append, "third")
    drive(sched, 1.0)
    assert order == ["first", "second", "third", "later instant"]


def test_cancel_is_tracked_and_idempotent(sched):
    fired = []
    keep = sched.at(0.1, fired.append, "keep")
    drop = sched.at(0.1, fired.append, "drop")
    assert type(drop) is Event
    sched.cancel(drop)
    sched.cancel(drop)
    sched.cancel(None)  # an optional handle passes unguarded
    assert drop.cancelled and not keep.cancelled
    assert heap_entries(sched) == (2, 1) and len(sched.queue) == 1
    drive(sched, 0.5)
    assert fired == ["keep"]
    assert heap_entries(sched) == (0, 0) and len(sched.queue) == 0


def test_cancel_heavy_load_compacts_the_heap(sched):
    # Algorithm H resets its HELP timer every round: most of what is
    # scheduled is cancelled, and the dead entries must not pile up
    fired = []
    for i in range(10):
        sched.at(0.01 * (i + 1), fired.append, i)
    for ev in [sched.at(5.0 + i, fired.append, "dead") for i in range(200)]:
        sched.cancel(ev)
    # compaction fires whenever dead entries exceed half the heap and
    # stops once the heap is below the floor: 210 -> 104 -> 51
    total, live = heap_entries(sched)
    assert total < 64 and live == len(sched.queue) == 10
    drive(sched, 1.0)
    assert fired == list(range(10))


def test_periodic_helpers_are_the_kernels(sched):
    ticks = []
    private = sched.periodic(1.0, lambda: ticks.append("private"))
    a = sched.shared_periodic(1.0, lambda: ticks.append("a"))
    b = sched.shared_periodic(1.0, lambda: ticks.append("b"))
    assert type(private) is PeriodicTimer
    assert type(a) is type(b) is RoundMembership and a.driver is b.driver
    assert len(sched.queue) == 2  # one entry for the timer, one for the round
    drive(sched, 3.5)
    assert "private" in ticks and ticks.count("a") == ticks.count("b") >= 1
    rounds = [t for t in ticks if t != "private"]
    assert rounds[:2] == ["a", "b"]  # members fire in join order
    for handle in (private, a, b):
        handle.stop()
    assert len(sched.queue) == heap_entries(sched)[1] == 0  # tracked cancels


def test_finalizers_run_or_clear_when_a_callback_raises(sched):
    ran = []
    sched.add_finalizer(lambda: ran.append("finalizer"))

    def boom():
        raise RuntimeError("callback failure")

    sched.at(0.1, boom)
    with pytest.raises(RuntimeError, match="callback failure"):
        drive(sched, 1.0)
    assert ran == ["finalizer"]
    drive(sched, 2.0)  # runnable again, and nothing is replayed
    assert ran == ["finalizer"]


def test_stop_ends_the_run_after_the_current_event(sched):
    fired = []

    def chain(i):
        fired.append(i)
        if i == 3:
            sched.stop()
        sched.after(0.1, chain, i + 1)

    sched.after(0.1, chain, 0)
    drive(sched)  # until=None and a chain that never ends: only stop() does
    assert fired == [0, 1, 2, 3]
    assert len(sched.queue) == 1  # the next link stays on the agenda


def _realtor_sim() -> Agenda:
    system = build_system(
        ExperimentConfig(protocol="realtor", arrival_rate=7.0, horizon=500.0, seed=3)
    )
    system.run()
    return system.sim


def _realtor_live() -> Agenda:
    # deep overload over a slow wire: HELP timers are re-armed and
    # negotiation timeouts cancelled by their replies throughout
    runtime = LiveRuntime(LiveConfig(
        nodes=9, arrival_rate=40.0, horizon=5.0, seed=7,
        time_scale=200.0, latency=0.5,
    ))
    report = asyncio.run(runtime.run())
    assert report["clean_shutdown"]
    return runtime.sim


@pytest.mark.parametrize("run", [_realtor_sim, _realtor_live], ids=["sim", "live"])
def test_live_count_is_exact_after_a_realtor_run(run):
    # every component cancels through sched.cancel: nothing drifts
    sched = run()
    live = len(sched.queue)
    assert live == heap_entries(sched)[1]
    # scheduled = executed + still live + cancelled: the run did cancel
    assert sched.queue._next_seq - sched.events_executed - live > 10


def wired(sched: Agenda, latency: float) -> Transport:
    """A 4-node full mesh where a message takes ``latency`` on either clock."""
    topo = generators.full_mesh(4)
    if isinstance(sched, LiveScheduler):
        transport = LiveTransport(sched, topo, latency=latency)
        asyncio.run(transport.start())
        return transport
    return Transport(sched, topo, per_hop_latency=latency)  # every route is one hop


def test_a_delivery_takes_its_turn_among_same_instant_timers(sched, manual_clock):
    order = []
    transport = wired(sched, latency=0.1)
    transport.register(1, "M", lambda d: order.append(d.payload))
    sched.at(0.1, order.append, "timer pushed before the send")
    transport.unicast(0, 1, "M", "delivery")
    sched.at(0.1, order.append, "timer pushed after it")
    sched.at(0.1, order.append, "arrival", priority=Priority.ARRIVAL)
    sched.at(0.1, order.append, "state", priority=Priority.STATE)
    drive(sched, 1.0)
    assert order == [
        "state",
        "timer pushed before the send",  # Priority.MESSAGE, like the delivery
        "delivery",
        "timer pushed after it",
        "arrival",
    ]


def test_back_to_back_unicasts_arrive_in_send_order_one_latency_later(
    sched, manual_clock
):
    got = []
    transport = wired(sched, latency=0.5)
    transport.register(1, "SEQ", got.append)

    def burst():
        for i in range(50):
            assert transport.unicast((0, 2, 3)[i % 3], 1, "SEQ", i) is True

    sched.at(0.25, burst)
    drive(sched, 2.0)
    assert [d.payload for d in got] == list(range(50))
    # pipelined behind one propagation delay, not queued behind each other
    assert all(0.5 <= d.delivered_at - d.sent_at < 0.51 for d in got)
    assert transport.delivered_messages == 50 and transport.dropped_messages == 0


def test_a_raising_handler_stops_the_run_and_deafens_nobody(sched):
    got = []

    def handler(delivery):
        if delivery.payload == "poison":
            raise RuntimeError("handler failure")
        got.append(delivery.payload)

    transport = wired(sched, latency=0.1)
    transport.register(1, "M", handler)
    transport.unicast(0, 1, "M", "poison")
    with pytest.raises(RuntimeError, match="handler failure"):
        drive(sched, 1.0)
    transport.unicast(0, 1, "M", "after")
    drive(sched, 2.0)  # the node still receives
    assert got == ["after"]
    assert transport.sent_messages == transport.delivered_messages == 2
    assert transport.dropped_messages == 0
