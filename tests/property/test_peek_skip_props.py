"""Property test: ``EventQueue.peek_time(skip)`` is the brute-force minimum.

The live scheduler arms its wait toward ``peek_time(is_quiet)``, the
earliest live event that is not quiet, found by a best-first walk of the
heap.  Under any interleaving of schedules, tracked and raw cancels,
pops and compactions, with a random quiet subset, the walk must agree
with a scan of every entry — and ``peek_time()`` must stay the head.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.api import is_quiet, quiet
from repro.sim.events import EventQueue


def loud() -> None:
    pass


@quiet
def hushed() -> None:
    pass


times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                  allow_infinity=False)
# coarse instants as well, so ties between quiet and loud entries occur
instants = st.one_of(times, st.integers(min_value=0, max_value=8).map(float))
schedule = st.tuples(st.just("schedule"), instants, st.booleans())
ops = st.one_of(
    # weighted toward schedules, so that heaps grow a few levels deep
    schedule, schedule, schedule, schedule,
    st.tuples(st.just("cancel_event"), st.integers(min_value=0)),
    st.tuples(st.just("raw_cancel"), st.integers(min_value=0)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("compact")),
)


def brute_min(events, skip=None):
    live = [
        ev.time for ev in events
        if not ev.cancelled and (skip is None or not skip(ev.fn))
    ]
    return min(live) if live else None


@settings(max_examples=300, deadline=None)
@given(st.lists(ops, min_size=8, max_size=120))
def test_peek_time_skip_is_the_minimum_over_live_unskipped_entries(script):
    q = EventQueue()
    pending = []  # scheduled, not popped: cancelled ones included
    for op in script:
        kind = op[0]
        if kind == "schedule":
            _, t, is_q = op
            pending.append(q.schedule(t, hushed if is_q else loud))
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
        assert q.peek_time(is_quiet) == brute_min(pending, is_quiet)
        assert q.peek_time() == brute_min(pending)
        assert len(q) == size  # a peek removes nothing live
