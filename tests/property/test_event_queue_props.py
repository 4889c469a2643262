"""Property tests: event-queue ordering invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)
priorities = st.integers(min_value=0, max_value=99)


class TestEventQueueProperties:
    @given(st.lists(st.tuples(times, priorities), max_size=200))
    def test_pop_order_is_nondecreasing(self, entries):
        q = EventQueue()
        for t, p in entries:
            q.schedule(t, lambda: None, priority=p)
        popped = []
        while q:
            ev = q.pop()
            popped.append((ev.time, ev.priority))
        assert popped == sorted(popped)

    @given(st.lists(times, max_size=100), st.data())
    def test_cancellation_removes_exactly_those(self, ts, data):
        q = EventQueue()
        events = [q.schedule(t, lambda: None) for t in ts]
        cancel_mask = [
            data.draw(st.booleans(), label=f"cancel[{i}]")
            for i in range(len(events))
        ]
        for ev, dead in zip(events, cancel_mask):
            if dead:
                q.cancel_event(ev)
        survivors = sorted(
            (ev.time, ev.seq) for ev, dead in zip(events, cancel_mask) if not dead
        )
        popped = []
        while q:
            ev = q.pop()
            popped.append((ev.time, ev.seq))
        assert popped == survivors

    @given(st.lists(times, min_size=1, max_size=100))
    def test_peek_matches_next_pop(self, ts):
        q = EventQueue()
        for t in ts:
            q.schedule(t, lambda: None)
        while q:
            peeked = q.peek_time()
            assert q.pop().time == peeked


class TestKernelProperties:
    @given(st.lists(times, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_clock_never_goes_backwards(self, ts):
        sim = Simulator()
        observed = []
        for t in ts:
            sim.at(t, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)

    @given(st.lists(st.tuples(times, times), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_chained_scheduling_preserves_order(self, pairs):
        sim = Simulator()
        fired = []

        for t, dt in pairs:
            def outer(t=t, dt=dt):
                sim.after(dt, lambda: fired.append(sim.now))

            sim.at(t, outer)
        sim.run()
        assert fired == sorted(fired)
