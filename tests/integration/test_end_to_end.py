"""End-to-end integration tests on the paper's exact configuration."""

import pytest

from repro.experiments.config import paper_config
from repro.experiments.runner import build_system, run_experiment
from repro.protocols.registry import PAPER_PROTOCOLS


class TestPaperSetting:
    def test_all_five_protocols_run_the_paper_config(self):
        for proto in PAPER_PROTOCOLS:
            res = run_experiment(paper_config(proto, 5.0, horizon=300.0))
            assert res.generated > 1000
            assert res.admission_probability > 0.9

    def test_saturation_knee_at_lambda_five(self):
        light = run_experiment(paper_config("realtor", 3.0, horizon=400.0))
        heavy = run_experiment(paper_config("realtor", 9.0, horizon=400.0))
        assert light.admission_probability == pytest.approx(1.0, abs=0.005)
        assert heavy.admission_probability < 0.9

    def test_message_kinds_match_protocol_family(self):
        push = run_experiment(paper_config("push-1", 5.0, horizon=200.0))
        assert push.messages_for("ADV") > 0
        assert push.messages_for("HELP") == 0

        pull = run_experiment(paper_config("pull-.9", 7.0, horizon=200.0))
        assert pull.messages_for("HELP") > 0
        assert pull.messages_for("PLEDGE") > 0
        assert pull.messages_for("ADV") == 0

        realtor = run_experiment(paper_config("realtor", 7.0, horizon=200.0))
        assert realtor.messages_for("HELP") > 0
        assert realtor.messages_for("PLEDGE") > 0

    def test_flood_charge_is_forty_per_help(self):
        res = run_experiment(paper_config("pull-.9", 7.0, horizon=200.0))
        # HELP cost is always a multiple of the 40-link flood charge
        assert res.messages_for("HELP") % 40.0 == 0.0
        assert res.messages_for("HELP") > 0

    def test_pledge_charge_is_four_per_message(self):
        res = run_experiment(paper_config("pull-.9", 7.0, horizon=200.0))
        assert res.messages_for("PLEDGE") % 4.0 == 0.0

    def test_admission_negotiation_counted(self):
        res = run_experiment(paper_config("realtor", 8.0, horizon=300.0))
        assert res.messages_for("ADMIT_REQ") > 0
        assert res.messages_for("ADMIT_REP") > 0
        # one REQ per attempt, one REP per delivered REQ
        reqs = res.messages_for("ADMIT_REQ") / 4.0
        assert reqs == res.extra.get("attempts", reqs)  # structural sanity

    def test_migrated_tasks_complete_remotely(self):
        system = build_system(paper_config("realtor", 8.0, horizon=300.0))
        system.run()
        res = system.result()
        assert res.admitted_migrated > 0
        # completions catch up once arrivals stop
        system.sim.run(until=600.0)
        system.settle()
        assert system.metrics.tasks.completed == res.admitted

    def test_response_time_grows_with_load(self):
        light = run_experiment(paper_config("realtor", 2.0, horizon=400.0))
        heavy = run_experiment(paper_config("realtor", 8.0, horizon=400.0))
        assert heavy.response_time_mean > light.response_time_mean


class TestCrossProtocolOrdering:
    """The core comparative claims at one overloaded operating point."""

    @pytest.fixture(scope="class")
    def results(self):
        return {
            proto: run_experiment(paper_config(proto, 8.0, horizon=600.0))
            for proto in PAPER_PROTOCOLS
        }

    def test_push1_is_most_expensive(self, results):
        push1 = results["push-1"].messages_total
        assert all(
            r.messages_total < push1
            for name, r in results.items()
            if name != "push-1"
        )

    def test_admission_probabilities_close(self, results):
        probs = [r.admission_probability for r in results.values()]
        assert max(probs) - min(probs) < 0.05

    def test_realtor_cheaper_than_unlimited_pull(self, results):
        assert (
            results["realtor"].messages_total
            < results["pull-.9"].messages_total
        )

    def test_adaptive_pull_cheapest(self, results):
        pull100 = results["pull-100"].messages_total
        assert pull100 <= results["realtor"].messages_total
        assert pull100 <= results["pull-.9"].messages_total


class TestInformationTimeliness:
    """The mechanism behind Figure 8, measured directly."""

    def test_staleness_ordering_matches_protocol_family(self):
        from repro.experiments.config import paper_config
        from repro.experiments.runner import run_experiment as _run

        staleness = {}
        for proto in ("push-1", "pull-100", "realtor"):
            r = _run(paper_config(proto, 8.0, horizon=500.0))
            staleness[proto] = r.extra["view_staleness"]
        # periodic push refreshes every second; REALTOR's crossing pledges
        # keep it far fresher than rate-limited pull
        assert staleness["push-1"] < staleness["realtor"] < staleness["pull-100"]

    def test_staleness_zero_before_any_traffic(self):
        from repro.experiments.config import paper_config
        from repro.experiments.runner import build_system

        system = build_system(paper_config("realtor", 1.0, horizon=10.0))
        assert system.mean_view_staleness() == 0.0
