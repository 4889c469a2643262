"""Unit tests for Algorithm P (pledge policy)."""

import pytest

from repro.core.algorithm_p import PledgePolicy
from repro.node.host import Host
from repro.node.task import Task, TaskOutcome
from repro.sim.kernel import Simulator


def build(threshold=0.9, usage=0.0):
    sim = Simulator()
    host = Host(sim, 0, capacity=100.0, threshold=threshold)
    if usage > 0:
        t = Task(size=usage * 100.0, arrival_time=0.0, origin=0)
        host.try_accept(t, TaskOutcome.LOCAL)
    return sim, host, PledgePolicy(host, threshold)


class TestShouldPledge:
    def test_pledges_below_threshold(self):
        _, _, policy = build(usage=0.5)
        assert policy.should_pledge_on_help()

    def test_silent_at_or_above_threshold(self):
        _, _, policy = build(usage=0.95)
        assert not policy.should_pledge_on_help()

    def test_boundary_is_strict(self):
        # "occupied less than a certain preset level": exactly at the
        # threshold means not available
        _, _, policy = build(usage=0.9)
        assert not policy.should_pledge_on_help()

    def test_threshold_validated(self):
        sim = Simulator()
        host = Host(sim, 0, capacity=10.0)
        with pytest.raises(ValueError):
            PledgePolicy(host, 1.0)


class TestGrantProbability:
    def test_prior_reflects_headroom(self):
        _, _, policy = build(usage=0.25)
        assert policy.grant_probability == pytest.approx(0.75)

    def test_history_dominates_after_observations(self):
        _, _, policy = build()
        for granted in (True, True, True, False):
            policy.observe_request(granted)
        # Laplace smoothed: (3+1)/(4+2)
        assert policy.grant_probability == pytest.approx(4 / 6)

    def test_all_rejections_low_probability(self):
        _, _, policy = build()
        for _ in range(8):
            policy.observe_request(False)
        assert policy.grant_probability == pytest.approx(1 / 10)

    def test_probability_always_valid(self):
        _, _, policy = build(usage=0.99)
        assert 0.0 <= policy.grant_probability <= 1.0


class TestMakePledge:
    def test_pledge_carries_paper_fields(self):
        sim, host, policy = build(usage=0.3)
        pledge = policy.make_pledge(communities=4, now=7.0)
        assert pledge.pledger == 0
        assert pledge.availability == pytest.approx(70.0)
        assert pledge.usage == pytest.approx(0.3)
        assert pledge.communities == 4
        assert pledge.sent_at == 7.0
        assert 0.0 <= pledge.grant_probability <= 1.0

    def test_pledge_reflects_decay(self):
        sim, host, policy = build(usage=0.5)
        sim.run(until=20.0)
        pledge = policy.make_pledge(communities=0, now=sim.now)
        assert pledge.usage == pytest.approx(0.3)
