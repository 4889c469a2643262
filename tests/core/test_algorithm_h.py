"""Unit tests for Algorithm H (adaptive HELP scheduling)."""

import random

import pytest

from repro.core.algorithm_h import HelpScheduler
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer


def build(sim=None, **kwargs):
    sim = sim or Simulator()
    sent = []
    params = dict(
        initial_interval=1.0,
        alpha=0.5,
        beta=0.5,
        upper_limit=100.0,
        response_timeout=1.0,
    )
    params.update(kwargs)
    sched = HelpScheduler(sim, lambda: sent.append(sim.now), **params)
    return sim, sched, sent


class TestGate:
    def test_first_send_allowed(self):
        sim, sched, sent = build()
        assert sched.maybe_send()
        assert sent == [0.0]

    def test_window_blocks_rapid_sends(self):
        sim, sched, sent = build()
        sched.maybe_send()
        assert not sched.maybe_send()  # same instant: gap 0 <= interval
        assert sent == [0.0]

    def test_send_allowed_after_window(self):
        sim, sched, sent = build()
        sched.maybe_send()
        sched.on_pledge(found_node=False)  # keep round failing: penalty at 1.0
        # after the penalty the interval is 1.5; a send at 2.0 clears it
        sim.at(2.0, sched.maybe_send)
        sim.run(until=3.0)
        assert sent == [0.0, 2.0]

    def test_gate_is_strict_inequality(self):
        # (T_current - T_sent) > HELP_interval, per the paper's pseudocode
        sim, sched, sent = build()
        sched.maybe_send()
        sim.at(1.0, sched.maybe_send)  # exactly the interval: blocked
        sim.run(until=2.0)
        assert sent == [0.0]


class TestPenalty:
    def test_timeout_grows_interval(self):
        sim, sched, _ = build()
        sched.maybe_send()
        sim.run(until=2.0)  # timeout at 1.0 with no pledges
        assert sched.interval == pytest.approx(1.5)
        assert sched.penalties == 1
        assert sched.timeouts == 1

    def test_growth_capped_at_upper_limit(self):
        sim, sched, _ = build(alpha=10.0, upper_limit=5.0, initial_interval=1.0)
        t = 0.0
        for _ in range(4):
            sim.at(t, sched.maybe_send)
            t += 50.0
        sim.run(until=300.0)
        assert sched.interval <= 5.0

    def test_non_adaptive_never_grows(self):
        sim, sched, _ = build(adaptive=False, initial_interval=10.0, upper_limit=10.0)
        sched.maybe_send()
        sim.run(until=5.0)
        assert sched.interval == 10.0
        assert sched.penalties == 0


class TestReward:
    def test_found_pledge_shrinks_interval(self):
        sim, sched, _ = build(beta=0.5)
        sched.maybe_send()
        sched.on_pledge(found_node=True)
        assert sched.interval == pytest.approx(0.5)
        assert sched.rewards == 1

    def test_found_pledge_disarms_penalty(self):
        sim, sched, _ = build()
        sched.maybe_send()
        sched.on_pledge(found_node=True)
        sim.run(until=5.0)
        assert sched.penalties == 0

    def test_unusable_pledge_keeps_penalty_armed(self):
        sim, sched, _ = build()
        sched.maybe_send()
        sched.on_pledge(found_node=False)
        sim.run(until=5.0)
        assert sched.penalties == 1  # round still failed

    def test_at_most_one_reward_per_round(self):
        sim, sched, _ = build(beta=0.5)
        sched.maybe_send()
        sched.on_pledge(found_node=True)
        sched.on_pledge(found_node=True)
        sched.on_pledge(found_node=True)
        assert sched.rewards == 1
        assert sched.interval == pytest.approx(0.5)

    def test_reward_respects_floor(self):
        sim, sched, _ = build(beta=0.99, min_interval=0.1)
        for i in range(10):
            sim.at(float(i * 10), sched.maybe_send)
            sim.at(float(i * 10) + 0.1, sched.on_pledge, True)
        sim.run(until=200.0)
        assert sched.interval >= 0.1

    def test_pledge_without_round_ignored(self):
        sim, sched, _ = build()
        sched.on_pledge(found_node=True)  # no HELP outstanding
        assert sched.rewards == 0
        assert sched.interval == 1.0


class TestDynamics:
    def test_sustained_failure_pins_at_upper_limit(self):
        sim, sched, sent = build(alpha=1.5, beta=0.2, upper_limit=100.0)

        def try_send():
            sched.maybe_send()
            if sim.now < 2000.0:
                sim.after(5.0, try_send)

        try_send()
        sim.run(until=2100.0)
        assert sched.interval == pytest.approx(100.0)
        # sends become rare once the interval is pinned
        late = [t for t in sent if t > 1000.0]
        assert len(late) <= 12

    def test_recovery_releases_interval(self):
        sim, sched, _ = build(alpha=1.5, beta=0.2)
        # drive the interval up
        t = 0.0
        for _ in range(20):
            sim.at(t, sched.maybe_send)
            t += 120.0
        sim.run(until=t)
        pinned = sched.interval
        assert pinned > 10.0
        # now every round succeeds
        for _ in range(20):
            sim.at(t, sched.maybe_send)
            sim.at(t + 0.1, sched.on_pledge, True)
            t += 120.0
        sim.run(until=t)
        assert sched.interval < pinned / 4

    def test_mean_interval_time_weighted(self):
        sim, sched, _ = build(alpha=1.0, upper_limit=4.0)
        assert sched.mean_interval() == 1.0  # no adaptation yet: the interval
        for t in (0.0, 10.0, 20.0):
            sim.at(t, sched.maybe_send)  # unanswered: penalty at t + 1
        sim.run(until=5.0)
        assert sched.mean_interval() == 2.0  # one adaptation: still no span
        sim.run(until=30.0)
        # trail (1, 2.0), (11, 4.0), (21, 4.0 capped): 2.0 held for 10 s,
        # 4.0 held for 10 s
        assert sched.penalties == 3 and sched.interval == 4.0
        assert sched.mean_interval() == pytest.approx(3.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mean_interval_equals_the_trail_walk_bit_for_bit(self, seed):
        # mean_interval() used to walk a stored (time, interval) trail;
        # the running sums must accumulate in the same order.  The trail
        # is still observable as the "help-interval" trace records.
        def trail_walk(trail):
            total = weight = 0.0
            prev_t, prev_v = trail[0]
            for t, v in trail[1:]:
                total += prev_v * (t - prev_t)
                weight += t - prev_t
                prev_t, prev_v = t, v
            return total / weight if weight > 0 else trail[-1][1]

        rng = random.Random(seed)
        sim, sched, _ = build(
            Simulator(trace=Tracer()), alpha=0.7, beta=0.3, upper_limit=9.0, owner=0
        )
        t = 0.0
        for _ in range(800):
            t += rng.expovariate(0.2)
            sim.at(t, sched.maybe_send)
            if rng.random() < 0.45:  # answered inside the response window
                sim.at(t + rng.uniform(0.01, 0.9), sched.on_pledge, True)
            if rng.random() < 0.1:
                sim.run(until=t)  # a reading in mid-trail
                trail = [(r.time, r["interval"])
                         for r in sim.trace.select("help-interval")]
                if trail:
                    assert sched.mean_interval() == trail_walk(trail)
        sim.run(until=t + 5.0)
        records = sim.trace.select("help-interval")
        trail = [(r.time, r["interval"]) for r in records]
        assert len(trail) == sched.penalties + sched.rewards > 300
        assert sched.rewards > 100 and sched.penalties > 100
        assert sum(r["interval"] == 9.0 and r["direction"] == "grow"
                   for r in records) > 50  # capped at Upper_limit
        assert sched.mean_interval() == trail_walk(trail)

    def test_stop_cancels_pending_timer(self):
        sim, sched, _ = build()
        sched.maybe_send()
        sched.stop()
        sim.run(until=10.0)
        assert sched.penalties == 0


class TestValidation:
    def test_rejects_bad_intervals(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            HelpScheduler(sim, lambda: None, initial_interval=0.0, alpha=1.0,
                          beta=0.5, upper_limit=10.0, response_timeout=1.0)
        with pytest.raises(ValueError):
            HelpScheduler(sim, lambda: None, initial_interval=20.0, alpha=1.0,
                          beta=0.5, upper_limit=10.0, response_timeout=1.0)
        with pytest.raises(ValueError):
            HelpScheduler(sim, lambda: None, initial_interval=1.0, alpha=1.0,
                          beta=0.5, upper_limit=10.0, response_timeout=0.0)


class TestRetries:
    def test_no_retries_by_default(self):
        sim, sched, sent = build()
        sched.maybe_send()
        sim.run(until=5.0)
        assert sent == [0.0]  # one transmission, round conceded at 1.0
        assert sched.retries == 0
        assert sched.timeouts == 1

    def test_retry_refloods_with_backoff(self):
        sim, sched, sent = build(max_retries=2, retry_backoff=2.0)
        sched.maybe_send()
        sim.run(until=20.0)
        # windows: 1s, then 2s, then 4s -> transmissions at 0, 1, 3
        assert sent == [0.0, 1.0, 3.0]
        assert sched.retries == 2
        assert sched.helps_sent == 3

    def test_penalty_once_per_round(self):
        sim, sched, sent = build(max_retries=2)
        sched.maybe_send()
        sim.run(until=20.0)
        # retries exhaust, then ONE penalty settles the round
        assert sched.timeouts == 1
        assert sched.penalties == 1
        assert sched.interval == pytest.approx(1.5)

    def test_pledge_cancels_pending_retries(self):
        sim, sched, sent = build(max_retries=3)
        sched.maybe_send()
        sim.at(0.5, sched.on_pledge, True)
        sim.run(until=20.0)
        assert sent == [0.0]  # answered inside the first window
        assert sched.retries == 0
        assert sched.rewards == 1

    def test_pledge_mid_retry_still_rewards(self):
        sim, sched, sent = build(max_retries=3, retry_backoff=2.0)
        sched.maybe_send()
        sim.at(1.5, sched.on_pledge, True)  # inside the first retry window
        sim.run(until=20.0)
        assert sent == [0.0, 1.0]
        assert sched.retries == 1
        assert sched.rewards == 1
        assert sched.penalties == 0

    def test_retry_budget_resets_per_round(self):
        sim, sched, sent = build(max_retries=1, retry_backoff=2.0)
        sched.maybe_send()          # round 1: send at 0, retry at 1, concede at 3
        sim.at(10.0, sched.maybe_send)  # round 2 gets a fresh budget
        sim.run(until=30.0)
        assert sent == [0.0, 1.0, 10.0, 11.0]
        assert sched.retries == 2
        assert sched.timeouts == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            build(max_retries=-1)
        with pytest.raises(ValueError):
            build(retry_backoff=0.5)
