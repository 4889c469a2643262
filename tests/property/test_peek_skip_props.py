"""Property test: ``EventQueue.peek_time()`` is the brute-force minimum.

The live scheduler arms its wait toward ``peek_time()``, the earliest
live event, which skips the cancelled entries at the heap's head.  Under
any interleaving of schedules, tracked and raw cancels, pops and
compactions, it must agree with a scan of every entry, and remove
nothing live.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue


def noop() -> None:
    pass


times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                  allow_infinity=False)
# coarse instants as well, so entries tie
instants = st.one_of(times, st.integers(min_value=0, max_value=8).map(float))
schedule = st.tuples(st.just("schedule"), instants)
ops = st.one_of(
    # weighted toward schedules, so that heaps grow a few levels deep
    schedule, schedule, schedule, schedule,
    st.tuples(st.just("cancel_event"), st.integers(min_value=0)),
    st.tuples(st.just("raw_cancel"), st.integers(min_value=0)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("compact")),
)


def brute_min(events):
    live = [ev.time for ev in events if not ev.cancelled]
    return min(live) if live else None


@settings(max_examples=300, deadline=None)
@given(st.lists(ops, min_size=8, max_size=120))
def test_peek_time_skip_is_the_minimum_over_live_unskipped_entries(script):
    q = EventQueue()
    pending = []  # scheduled, not popped: cancelled ones included
    for op in script:
        kind = op[0]
        if kind == "schedule":
            pending.append(q.schedule(op[1], noop))
        elif kind in ("cancel_event", "raw_cancel") and pending:
            ev = pending[op[1] % len(pending)]
            if kind == "cancel_event":
                q.cancel_event(ev)
            else:
                ev.cancel()  # invisible to the live count
        elif kind == "pop":
            ev = q.pop()
            if ev is not None:
                pending.remove(ev)
        elif kind == "compact":
            q.compact()
        size = len(q)
        assert q.peek_time() == brute_min(pending)
        assert len(q) == size  # a peek removes nothing live
