"""LiveScheduler: wall-clock seam semantics.

Everything runs at a large ``time_scale`` so virtual horizons of tens of
seconds finish in milliseconds of wall time — no test below sleeps for a
human-perceptible duration, and none asserts on wall-clock values (only
on event counts, ordering and virtual times), so they cannot flake under
CI load.  The exceptions are in ``TestWaiting``: generous ``wait_for``
ceilings that only a hung scheduler reaches, and one precision check
with a bound three times what a loop timer could meet.

What the live scheduler shares with the kernel (the agenda: order,
tracked cancel, compaction, periodic helpers, finalizers, ``stop``) is
stated once for both in ``tests/runtime/test_agenda_contract.py``; the
cases here are what waiting on a wall clock adds, and each runs on the
timerfd and again on the ``loop.call_at`` fallback.
"""

import asyncio
import os
import statistics

import pytest

from repro.live import LiveConfig, LiveRuntime, scheduler
from repro.live.scheduler import LiveScheduler
from repro.sim.kernel import Simulator


def go(coro):
    return asyncio.run(coro)


class TestScheduling:
    def test_same_instant_ordered_by_priority_then_seq(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            order = []
            sim.at(0.5, order.append, "late-priority")
            sim.at(0.5, order.append, "early-priority", priority=-5)
            sim.at(0.5, order.append, "same-priority-second")
            await sim.run(until=1.0)
            return order

        assert go(run()) == [
            "early-priority",
            "late-priority",
            "same-priority-second",
        ]

    def test_past_deadline_clamps_fires_and_counts(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            fired = []
            sim.at(-3.0, fired.append, "past")
            assert sim.late_events == 1
            await sim.run(until=0.5)
            return fired

        assert go(run()) == ["past"]

    def test_after_reads_the_clock_once(self):
        # a delay shorter than the gap between two clock reads was counted
        # late although it never was; at() called directly keeps its check
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            await sim.run(until=0.001)  # anchors the clock: it now moves
            for _ in range(1000):
                sim.after(0.0, lambda: None)
                sim.after(1e-9, lambda: None)
            late = sim.late_events
            sim.at(sim.now - 1.0, lambda: None)
            return late, sim.late_events

        assert go(run()) == (0, 1)

    def test_non_finite_deadline_rejected(self):
        sim = LiveScheduler()
        with pytest.raises(ValueError):
            sim.at(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            sim.at(float("inf"), lambda: None)
        with pytest.raises(ValueError):
            sim.after(-1.0, lambda: None)

    def test_cancel_prevents_firing(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            fired = []
            keep = sim.at(0.1, fired.append, "keep")
            drop = sim.at(0.1, fired.append, "drop")
            sim.cancel(drop)
            sim.cancel(None)  # accepted, mirrors the kernel
            assert drop.cancelled and not keep.cancelled
            await sim.run(until=0.5)
            return fired

        assert go(run()) == ["keep"]

    def test_due_events_fire_even_when_wall_clock_passes_horizon(self):
        # pinning: at extreme time_scale the wall clock slips past the
        # horizon while due events are still queued; every event with a
        # deadline <= until must fire before run() returns anyway.
        async def run():
            sim = LiveScheduler(time_scale=1_000_000.0)
            fired = []
            for i in range(200):
                sim.at(i * 4.9, fired.append, i)  # all inside until=1000
            await sim.run(until=1000.0)
            return fired

        fired = go(run())
        assert fired == list(range(200))


class TestExecution:
    def test_run_is_resumable(self):
        async def run():
            sim = LiveScheduler(time_scale=2000.0)
            fired = []
            sim.at(0.5, fired.append, "first-window")
            sim.at(1.5, fired.append, "second-window")
            t1 = await sim.run(until=1.0)
            mid = list(fired)
            t2 = await sim.run(until=2.0)
            return mid, fired, t1, t2

        mid, fired, t1, t2 = go(run())
        assert mid == ["first-window"]
        assert fired == ["first-window", "second-window"]
        assert t2 > t1 >= 1.0

    def test_stop_breaks_an_unbounded_run(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            fired = []

            def chain(i):
                fired.append(i)
                if i >= 5:
                    sim.stop()
                else:
                    sim.after(0.1, chain, i + 1)

            sim.after(0.1, chain, 0)
            await sim.run()  # until=None: only stop() can end this
            return fired

        assert go(run()) == [0, 1, 2, 3, 4, 5]

    def test_periodic_uses_kernel_timer(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            ticks = []
            handle = sim.periodic(1.0, lambda: ticks.append(sim.now))
            await sim.run(until=5.5)
            handle.stop()
            return ticks

        ticks = go(run())
        assert len(ticks) >= 3  # nominal 5; lateness may shave the tail
        assert all(t >= 1.0 for t in ticks)

    def test_shared_periodic_coalesces_same_cadence(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            a, b = [], []
            sim.shared_periodic(1.0, lambda: a.append(1))
            sim.shared_periodic(1.0, lambda: b.append(1))
            await sim.run(until=4.5)
            return a, b

        a, b = go(run())
        assert len(a) == len(b) >= 2  # one round drives both members

    def test_finalizers_run_once_when_run_returns(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            calls = []
            sim.add_finalizer(lambda: calls.append(1))
            await sim.run(until=0.1)
            await sim.run(until=0.2)
            return calls

        assert go(run()) == [1]


@pytest.fixture
def no_timerfd(monkeypatch):
    """A libc without timerfd: the shim raises, ``run`` falls back."""

    def missing(*_args):
        raise OSError("timerfd_create failed")

    monkeypatch.setattr(scheduler, "_Timerfd", missing)


@pytest.mark.usefixtures("no_timerfd")
class TestSchedulingOnCallAt(TestScheduling):
    """Every scheduling test again, on the ``loop.call_at`` fallback."""


@pytest.mark.usefixtures("no_timerfd")
class TestExecutionOnCallAt(TestExecution):
    """Every execution test again, on the ``loop.call_at`` fallback."""

    def test_the_fallback_is_what_ran(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            await sim.run(until=0.01)
            return sim.timer

        assert go(run()) == "call_at"


class TestWaiting:
    """The scheduler sleeps toward its heap head instead of spinning."""

    def test_one_armed_wait_per_gap(self):
        # 0.5 ms gaps: the sleep(0) spin this replaced resumed tens of
        # times per gap; an armed wait resumes once
        async def run():
            sim = LiveScheduler(time_scale=1.0)
            fired = []
            for i in range(200):
                sim.at(0.0005 * (i + 1), fired.append, i)
            await sim.run(until=0.101)
            return sim, fired

        sim, fired = go(run())
        assert fired == list(range(200))
        assert 1 <= sim.wakeups <= 2 * len(fired)

    def test_earlier_insert_rearms_and_later_insert_does_not_wake(self):
        async def run():
            sim = LiveScheduler(time_scale=1.0)
            fired = []
            sim.at(1.0, fired.append, "far")
            task = asyncio.create_task(sim.run())
            await asyncio.sleep(0.005)  # the scheduler is asleep toward t=1
            before = sim.wakeups
            sim.at(2.0, fired.append, "farther")
            await asyncio.sleep(0.005)
            unmoved = sim.wakeups == before

            def near():
                fired.append(("near", sim.now))
                sim.stop()

            sim.after(0.002, near)  # from another task, 2 ms ahead
            await asyncio.wait_for(task, 0.5)
            return unmoved, fired, sim.wakeups - before

        unmoved, fired, woken = go(run())
        assert unmoved, "an insert behind the armed deadline woke the scheduler"
        ((name, at),) = fired
        assert name == "near" and at < 0.5  # not the 1 s the timer was armed for
        assert woken == 2  # once to re-arm, once when the new deadline came

    def test_empty_heap_returns_at_the_horizon_and_on_stop(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            t = await asyncio.wait_for(sim.run(until=5.0), 1.0)  # 5 ms of wall
            task = asyncio.create_task(sim.run())  # nothing to wait for
            await asyncio.sleep(0.005)
            idle = not task.done() and sim.wakeups == 1
            sim.stop()
            await asyncio.wait_for(task, 1.0)
            return t, idle

        t, idle = go(run())
        assert 5.0 <= t < 500.0
        assert idle

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs")
    def test_a_runtime_run_leaks_no_fd(self):
        # one timerfd per scheduler.run(): the horizon plus every drain
        # slice.  Deep overload and a slow wire leave negotiations in
        # flight at the horizon, so the drain does run slices.
        async def run():
            before = len(os.listdir("/proc/self/fd"))
            rt = LiveRuntime(LiveConfig(
                nodes=9, arrival_rate=40.0, horizon=5.0, seed=7,
                time_scale=200.0, latency=0.5,
            ))
            runs = 0
            inner = rt.sim.run

            def counted(until=None):
                nonlocal runs
                runs += 1
                return inner(until)

            rt.sim.run = counted
            report = await rt.run()
            return before, len(os.listdir("/proc/self/fd")), runs, report

        before, after, runs, report = go(run())
        assert runs > 1 and report["clean_shutdown"]
        assert report["scheduler"]["timer"] == "timerfd"
        assert after == before

    def test_sub_millisecond_precision(self):
        # the one wall-clock assertion: a loop timer overshoots ~1 ms
        async def run():
            sim = LiveScheduler(time_scale=1.0)
            over = []
            for i in range(1, 101):
                sim.at(0.0003 * i, lambda due=0.0003 * i: over.append(sim.now - due))
            await sim.run(until=0.031)
            return sim.timer, over

        timer, over = go(run())
        if timer != "timerfd":
            pytest.skip("loop timers are millisecond-grained")
        assert len(over) == 100
        assert statistics.median(over) < 0.0003


class TestDeterminism:
    def test_streams_match_the_simulator(self):
        # the bridge the live-vs-sim equivalence tests stand on: equal
        # seeds derive identical named substreams on both runtimes
        live = LiveScheduler(seed=1234)
        sim = Simulator(seed=1234)
        for name in ("arrivals", "sizes", "demands", "policy"):
            a = live.streams.stream(name).random(8)
            b = sim.streams.stream(name).random(8)
            assert a.tolist() == b.tolist()
