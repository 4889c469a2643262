"""Unit tests for the event queue primitives."""

import pytest

from repro.sim.events import Event, EventQueue, Priority


class TestEventOrdering:
    def test_time_orders_events(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, fired.append, "b")
        q.schedule(1.0, fired.append, "a")
        q.schedule(3.0, fired.append, "c")
        while q:
            ev = q.pop()
            ev.fn(*ev.args)
        assert fired == ["a", "b", "c"]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, fired.append, "msg", priority=Priority.MESSAGE)
        q.schedule(1.0, fired.append, "state", priority=Priority.STATE)
        q.schedule(1.0, fired.append, "sample", priority=Priority.SAMPLING)
        q.schedule(1.0, fired.append, "arrival", priority=Priority.ARRIVAL)
        order = []
        while q:
            ev = q.pop()
            ev.fn(*ev.args)
        assert fired == ["state", "msg", "arrival", "sample"]

    def test_insertion_order_breaks_full_ties(self):
        q = EventQueue()
        fired = []
        for i in range(10):
            q.schedule(1.0, fired.append, i)
        while q:
            ev = q.pop()
            ev.fn(*ev.args)
        assert fired == list(range(10))

    def test_priority_bands_are_ordered(self):
        assert Priority.STATE < Priority.MESSAGE < Priority.ARRIVAL < Priority.SAMPLING


class TestCancellation:
    def test_cancelled_event_not_popped(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        keep = q.schedule(2.0, lambda: None)
        q.cancel_event(ev)
        assert q.pop() is keep
        assert q.pop() is None

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert ev.cancelled

    def test_cancel_releases_references(self):
        q = EventQueue()
        payload = object()
        ev = q.schedule(1.0, lambda x: None, payload)
        ev.cancel()
        assert ev.args == ()

    def test_len_counts_live_events(self):
        q = EventQueue()
        a = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        assert len(q) == 2
        q.cancel_event(a)
        assert len(q) == 1

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        a = q.schedule(1.0, lambda: None)
        q.schedule(5.0, lambda: None)
        a.cancel()
        assert q.peek_time() == 5.0


class TestValidation:
    def test_rejects_nan_time(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(float("nan"), lambda: None)

    def test_rejects_infinite_time(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(float("inf"), lambda: None)

    def test_clear_empties_queue(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.clear()
        assert len(q) == 0
        assert q.pop() is None

    def test_empty_queue_is_falsy(self):
        q = EventQueue()
        assert not q
        q.schedule(1.0, lambda: None)
        assert q


class TestEventRepr:
    def test_lt_compares_triples(self):
        a = Event(1.0, 0, 0, lambda: None, ())
        b = Event(1.0, 0, 1, lambda: None, ())
        c = Event(1.0, 1, 0, lambda: None, ())
        assert a < b < c or (a < b and b < c)
