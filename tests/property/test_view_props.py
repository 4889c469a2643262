"""Property tests: resource-view and community soft-state invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.community import Community, MembershipTable
from repro.protocols.view import ResourceView

node_ids = st.integers(0, 30)
availabilities = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
timestamps = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)

updates = st.lists(
    st.tuples(node_ids, availabilities, timestamps, st.booleans()),
    max_size=100,
)


class TestViewProperties:
    @given(updates)
    def test_entries_hold_newest_timestamp_per_node(self, ups):
        view = ResourceView(owner=99)
        newest = {}
        for node, avail, ts, available in ups:
            view.update(node, avail, 0.5, available, ts)
            if ts >= newest.get(node, (-1.0, None))[0]:
                newest[node] = (ts, avail)
        for node, (ts, avail) in newest.items():
            entry = view.get(node)
            assert entry.timestamp == ts
            assert entry.availability == avail

    @given(updates, st.floats(min_value=0.0, max_value=100.0))
    def test_candidates_sorted_and_filtered(self, ups, min_avail):
        view = ResourceView(owner=99)
        for node, avail, ts, available in ups:
            view.update(node, avail, 0.5, available, ts)
        out = view.candidates(now=2000.0, min_availability=min_avail)
        # all pass the filter
        assert all(e.available and e.availability >= min_avail for e in out)
        # sorted by (availability desc, timestamp desc, id)
        keys = [(-e.availability, -e.timestamp, e.node) for e in out]
        assert keys == sorted(keys)

    @given(updates)
    def test_owner_never_a_candidate(self, ups):
        view = ResourceView(owner=5)
        for node, avail, ts, available in ups:
            view.update(node, avail, 0.5, available, ts)
        assert all(e.node != 5 for e in view.candidates(now=2000.0))


pledge_events = st.lists(st.tuples(node_ids, timestamps), max_size=80)


class TestCommunityProperties:
    @given(pledge_events, st.floats(min_value=1.0, max_value=100.0))
    def test_members_always_within_ttl_after_refresh(self, events, ttl):
        c = Community(member_ttl=ttl)
        events = sorted(events, key=lambda e: e[1])
        now = 0.0
        for node, ts in events:
            now = ts
            c.on_pledge(node, now=ts)
        c.note_refresh(now)
        for last in c.members.values():
            assert now - last <= ttl

    @given(pledge_events)
    def test_member_count_bounded_by_distinct_pledgers(self, events):
        c = Community()
        joins = sum(
            c.on_pledge(node, now=ts)
            for node, ts in sorted(events, key=lambda e: e[1])
        )
        distinct = len({n for n, _ in events})
        assert c.size() <= distinct
        assert joins == distinct


class TestMembershipProperties:
    @given(
        st.lists(st.tuples(st.integers(1, 20), timestamps), max_size=60),
        st.floats(min_value=1.0, max_value=200.0),
    )
    def test_expiry_is_exactly_ttl(self, helps, ttl):
        m = MembershipTable(owner=0, membership_ttl=ttl)
        helps = sorted(helps, key=lambda h: h[1])
        last_seen = {}
        now = 0.0
        for org, ts in helps:
            now = ts
            m.on_help(org, ts)
            last_seen[org] = ts
        horizon = now + ttl * 2
        m.expire(horizon)
        for org, ts in last_seen.items():
            assert (org in m) == (horizon - ts <= ttl)
