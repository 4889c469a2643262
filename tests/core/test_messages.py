"""Unit tests for the wire message types."""

import pytest

from repro.core.messages import Advertisement, Help, Pledge


class TestHelp:
    def test_fields(self):
        h = Help(organizer=3, members=2, demand=5.0, sent_at=1.0)
        assert (h.organizer, h.members, h.demand) == (3, 2, 5.0)

    def test_immutable(self):
        h = Help(organizer=0, members=0, demand=0.0, sent_at=0.0)
        with pytest.raises(AttributeError):
            h.members = 5

    def test_validation(self):
        with pytest.raises(ValueError):
            Help(organizer=0, members=-1, demand=0.0, sent_at=0.0)
        with pytest.raises(ValueError):
            Help(organizer=0, members=0, demand=-1.0, sent_at=0.0)


class TestPledge:
    def make(self, **kw):
        base = dict(
            pledger=1,
            availability=50.0,
            usage=0.5,
            communities=2,
            grant_probability=0.8,
            sent_at=0.0,
        )
        base.update(kw)
        return Pledge(**base)

    def test_usage_range_validated(self):
        with pytest.raises(ValueError):
            self.make(usage=1.5)
        with pytest.raises(ValueError):
            self.make(usage=-0.1)

    def test_grant_probability_validated(self):
        with pytest.raises(ValueError):
            self.make(grant_probability=1.01)

    def test_negative_availability_rejected(self):
        with pytest.raises(ValueError):
            self.make(availability=-1.0)


class TestAdvertisement:
    def test_fields_validated(self):
        adv = Advertisement(origin=0, availability=10.0, usage=0.9,
                            available=False, sent_at=2.0)
        assert not adv.available
        with pytest.raises(ValueError):
            Advertisement(origin=0, availability=-1.0, usage=0.5,
                          available=True, sent_at=0.0)
        with pytest.raises(ValueError):
            Advertisement(origin=0, availability=1.0, usage=2.0,
                          available=True, sent_at=0.0)
