"""Unit tests for community soft state."""

import pytest

from repro.core.community import Community, MembershipTable


class TestCommunity:
    def test_pledge_joins(self):
        c = Community()
        assert c.on_pledge(1, now=0.0)
        assert c.members == {1: 0.0}

    def test_repledge_updates_not_joins(self):
        c = Community()
        c.on_pledge(1, now=0.0)
        assert not c.on_pledge(1, now=5.0)
        assert c.members == {1: 5.0}

    def test_refresh_sweeps_silent_members(self):
        c = Community(member_ttl=10.0)
        c.on_pledge(1, now=0.0)
        c.on_pledge(2, now=8.0)
        dropped = c.note_refresh(now=11.0)
        assert dropped == [1]
        assert list(c.members) == [2]

    def test_refresh_keeps_fresh_members(self):
        c = Community(member_ttl=10.0)
        c.on_pledge(1, now=0.0)
        assert c.note_refresh(now=5.0) == []
        assert 1 in c.members

    def test_drop(self):
        # the sweep is the only way out; a swept member pledging again rejoins
        c = Community(member_ttl=10.0)
        c.on_pledge(1, now=0.0)
        assert c.note_refresh(now=11.0) == [1]
        assert c.size() == 0
        assert c.note_refresh(now=12.0) == []
        assert c.on_pledge(1, now=12.0)

    def test_ttl_validation(self):
        with pytest.raises(ValueError):
            Community(member_ttl=0.0)

    def test_staleness(self):
        # a member is exactly member_ttl stale before the sweep takes it
        c = Community(member_ttl=8.0)
        c.on_pledge(1, now=2.0)
        assert c.note_refresh(now=10.0) == []
        assert c.note_refresh(now=10.5) == [1]


class TestMembershipTable:
    def test_join_and_renew(self):
        m = MembershipTable(owner=0, membership_ttl=10.0)
        m.on_help(5, now=0.0)
        m.on_help(5, now=8.0)
        assert m.organizers(now=15.0) == [5]  # renewed at 8, alive at 15

    def test_expiry_after_silence(self):
        m = MembershipTable(owner=0, membership_ttl=10.0)
        m.on_help(5, now=0.0)
        gone = m.expire(now=11.0)
        assert gone == [5]
        assert m.count() == 0

    def test_renew_ends_a_lapsed_membership(self):
        m = MembershipTable(owner=0, membership_ttl=10.0)
        m.on_help(5, now=0.0)
        m.renew(5, now=9.0)
        m.renew(5, now=19.0)
        assert 5 in m  # renewed twice within the TTL
        m.renew(5, now=29.5)
        assert 5 not in m  # silent 10.5 s: ended, not revived
        m.renew(6, now=0.0)
        assert 6 not in m  # renewing never joins

    def test_own_community_rejected(self):
        m = MembershipTable(owner=0)
        with pytest.raises(ValueError):
            m.on_help(0, now=0.0)

    def test_leave(self):
        m = MembershipTable(owner=0)
        m.on_help(3, now=0.0)
        m.leave(3)
        assert 3 not in m

    def test_count_with_lazy_expiry(self):
        m = MembershipTable(owner=0, membership_ttl=10.0)
        m.on_help(1, now=0.0)
        m.on_help(2, now=5.0)
        assert m.count(now=12.0) == 1   # 1 expired, 2 alive

    def test_organizers_sorted(self):
        m = MembershipTable(owner=0)
        for org in (7, 3, 5):
            m.on_help(org, now=0.0)
        assert m.organizers() == [3, 5, 7]

    def test_ttl_validation(self):
        with pytest.raises(ValueError):
            MembershipTable(owner=0, membership_ttl=-1.0)
