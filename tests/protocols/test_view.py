"""Unit tests for the resource view."""

import pytest

from repro.protocols.view import ResourceView


def fill(view, node, availability=50.0, usage=0.5, available=True, t=0.0):
    view.update(node, availability, usage, available, t)


class TestUpdates:
    def test_update_and_get(self):
        v = ResourceView(owner=0)
        fill(v, 1, availability=30.0, t=2.0)
        entry = v.get(1)
        assert entry.availability == 30.0
        assert entry.timestamp == 2.0
        assert len(v) == 1

    def test_owner_never_stored(self):
        v = ResourceView(owner=0)
        fill(v, 0)
        assert len(v) == 0

    def test_newer_overwrites_older(self):
        v = ResourceView(owner=0)
        fill(v, 1, availability=30.0, t=1.0)
        fill(v, 1, availability=60.0, t=2.0)
        assert v.get(1).availability == 60.0

    def test_older_never_overwrites_newer(self):
        v = ResourceView(owner=0)
        fill(v, 1, availability=60.0, t=2.0)
        fill(v, 1, availability=30.0, t=1.0)  # stale message arrives late
        assert v.get(1).availability == 60.0

    def test_forget(self):
        v = ResourceView(owner=0)
        fill(v, 1)
        v.forget(1)
        assert 1 not in v
        v.forget(1)  # idempotent

    def test_clear(self):
        v = ResourceView(owner=0)
        fill(v, 1)
        fill(v, 2)
        v.clear()
        assert len(v) == 0


class TestCandidates:
    def test_owner_and_excluded_filtered(self):
        v = ResourceView(owner=0)
        fill(v, 1)
        fill(v, 2)
        out = v.candidates(now=0.0, exclude=(2,))
        assert [e.node for e in out] == [1]

    def test_unavailable_filtered(self):
        v = ResourceView(owner=0)
        fill(v, 1, available=False)
        fill(v, 2, available=True)
        assert [e.node for e in v.candidates(now=0.0)] == [2]

    def test_min_availability_filter(self):
        v = ResourceView(owner=0)
        fill(v, 1, availability=3.0)
        fill(v, 2, availability=10.0)
        out = v.candidates(now=0.0, min_availability=5.0)
        assert [e.node for e in out] == [2]

    def test_ranking_availability_then_freshness_then_id(self):
        v = ResourceView(owner=0)
        fill(v, 3, availability=50.0, t=1.0)
        fill(v, 1, availability=50.0, t=2.0)
        fill(v, 2, availability=80.0, t=0.0)
        out = [e.node for e in v.candidates(now=2.0)]
        assert out == [2, 1, 3]

    def test_limit(self):
        v = ResourceView(owner=0)
        for n in range(1, 6):
            fill(v, n)
        assert len(v.candidates(now=0.0, limit=2)) == 2

    def test_best_single(self):
        v = ResourceView(owner=0)
        fill(v, 1, availability=10.0)
        fill(v, 2, availability=90.0)
        assert v.best(now=0.0).node == 2

    def test_best_none_when_empty(self):
        assert ResourceView(owner=0).best(now=0.0) is None


class TestTtl:
    def test_no_ttl_keeps_forever(self):
        v = ResourceView(owner=0)
        fill(v, 1, t=0.0)
        assert [e.node for e in v.candidates(now=1e9)] == [1]


class TestStaleness:
    def test_entry_staleness(self):
        v = ResourceView(owner=0)
        fill(v, 1, t=5.0)
        assert v.get(1).staleness(9.0) == 4.0
        assert v.get(1).staleness(4.0) == 0.0  # never negative

    def test_mean_staleness(self):
        v = ResourceView(owner=0)
        fill(v, 1, t=0.0)
        fill(v, 2, t=10.0)
        assert v.mean_staleness(now=10.0) == pytest.approx(5.0)

    def test_mean_staleness_empty(self):
        assert ResourceView(owner=0).mean_staleness(now=5.0) == 0.0

    def test_update_counter(self):
        v = ResourceView(owner=0)
        fill(v, 1)
        fill(v, 1, t=1.0)
        assert v.updates == 2
