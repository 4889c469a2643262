"""Causality-span tests: correlation, settlements, trace agreement."""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.obs.spans import build_help_spans, build_placement_spans
from repro.sim.trace import Tracer
from tests.oracles import trace_pairs


def tracer_with(*events):
    t = Tracer()
    for time, category, payload in events:
        t.emit(time, category, **payload)
    return t


class TestHelpSpans:
    def test_correlates_by_organizer_and_help_id(self):
        t = tracer_with(
            (1.0, "help-sent", {"node": 1, "help_id": 0, "demand": 2.0}),
            (1.0, "help-sent", {"node": 2, "help_id": 0, "demand": 3.0}),
            (1.5, "pledge-recv", {"node": 1, "pledger": 5, "help_id": 0, "hops": 2}),
            (2.0, "pledge-recv", {"node": 2, "pledger": 6, "help_id": 0, "hops": 1}),
            (2.5, "pledge-recv", {"node": 1, "pledger": 7, "help_id": 0, "hops": 3}),
        )
        spans = build_help_spans(t)
        assert len(spans) == 2
        s1 = next(s for s in spans if s.organizer == 1)
        assert [p.pledger for p in s1.pledges] == [5, 7]
        assert s1.first_latency == 0.5
        assert s1.max_hops == 3
        assert s1.demand == 2.0

    def test_late_pledge_answers_the_older_help(self):
        # two outstanding helps from one organizer: the id disambiguates
        t = tracer_with(
            (1.0, "help-sent", {"node": 1, "help_id": 0}),
            (2.0, "help-sent", {"node": 1, "help_id": 1}),
            (3.0, "pledge-recv", {"node": 1, "pledger": 9, "help_id": 0}),
        )
        spans = build_help_spans(t)
        assert spans[0].answered and spans[0].first_latency == 2.0
        assert not spans[1].answered

    def test_crossing_pledges_belong_to_no_span(self):
        t = tracer_with(
            (1.0, "help-sent", {"node": 1, "help_id": 0}),
            (1.5, "pledge-recv", {"node": 1, "pledger": 4, "help_id": -1}),
        )
        spans = build_help_spans(t)
        assert len(spans) == 1 and not spans[0].answered

    def test_uncorrelated_help_sent_skipped(self):
        t = tracer_with((1.0, "help-sent", {"node": 1, "help_id": -1}),)
        assert build_help_spans(t) == []

    def test_as_bar_spans_first_to_last_pledge(self):
        t = tracer_with(
            (1.0, "help-sent", {"node": 3, "help_id": 2}),
            (4.0, "pledge-recv", {"node": 3, "pledger": 1, "help_id": 2}),
        )
        label, start, end = build_help_spans(t)[0].as_bar()
        assert label == "help 3#2" and (start, end) == (1.0, 4.0)

    def test_accepts_plain_record_iterables(self):
        t = tracer_with(
            (1.0, "help-sent", {"node": 1, "help_id": 0}),
            (2.0, "pledge-recv", {"node": 1, "pledger": 2, "help_id": 0}),
        )
        assert build_help_spans(list(t.records))[0].answered


class TestPlacementSpans:
    def test_try_chain_up_to_migration(self):
        t = tracer_with(
            (1.0, "candidate-try", {"task": 7, "src": 0, "dst": 3, "attempt": 0}),
            (1.2, "candidate-try", {"task": 7, "src": 0, "dst": 5, "attempt": 1}),
            (1.5, "migration", {"task": 7, "src": 0, "dst": 5, "outcome": "migrated"}),
        )
        span, = build_placement_spans(t)
        assert span.tries == [(3, 1.0), (5, 1.2)]
        assert span.outcome == "migrated" and span.dst == 5
        assert span.latency == 0.5 and span.hops == 2

    def test_rejection_and_loss_settlements(self):
        t = tracer_with(
            (1.0, "candidate-try", {"task": 1, "src": 0, "dst": 3, "attempt": 0}),
            (1.5, "rejection", {"task": 1}),
            (2.0, "candidate-try", {"task": 2, "src": 4, "dst": 6, "attempt": 0}),
            (2.5, "evacuation-lost", {"task": 2, "src": 4}),
        )
        spans = build_placement_spans(t)
        assert [s.outcome for s in spans] == ["rejected", "lost"]
        assert all(s.dst is None for s in spans)

    def test_evacuation_settlement_keeps_destination(self):
        t = tracer_with(
            (1.0, "candidate-try", {"task": 3, "src": 2, "dst": 8, "attempt": 0}),
            (1.1, "evacuation", {"task": 3, "src": 2, "dst": 8}),
        )
        span, = build_placement_spans(t)
        assert span.outcome == "evacuated" and span.dst == 8

    def test_same_task_reopens_a_new_span_after_settlement(self):
        t = tracer_with(
            (1.0, "candidate-try", {"task": 9, "src": 0, "dst": 1, "attempt": 0}),
            (1.5, "migration", {"task": 9, "src": 0, "dst": 1, "outcome": "migrated"}),
            (5.0, "candidate-try", {"task": 9, "src": 1, "dst": 2, "attempt": 0}),
            (5.5, "evacuation", {"task": 9, "src": 1, "dst": 2}),
        )
        spans = build_placement_spans(t)
        assert len(spans) == 2
        assert spans[0].outcome == "migrated" and spans[1].outcome == "evacuated"

    def test_unsettled_span_stays_open(self):
        t = tracer_with(
            (1.0, "candidate-try", {"task": 4, "src": 0, "dst": 1, "attempt": 0}),
        )
        span, = build_placement_spans(t)
        assert not span.settled and span.latency is None


class TestPairsEquivalence:
    """Acceptance: span latencies agree with ``Tracer.pairs``."""

    def test_non_overlapping_helps_match_greedy_pairs(self):
        # one HELP outstanding at a time: id correlation and greedy
        # in-order pairing must produce identical latencies
        t = tracer_with(
            (1.0, "help-sent", {"node": 1, "help_id": 0}),
            (1.4, "pledge-recv", {"node": 1, "pledger": 2, "help_id": 0}),
            (3.0, "help-sent", {"node": 1, "help_id": 1}),
            (3.9, "pledge-recv", {"node": 1, "pledger": 4, "help_id": 1}),
        )
        pair_latencies = [b.time - a.time for a, b in trace_pairs(t, "help-sent", "pledge-recv")]
        span_latencies = [
            p.latency for s in build_help_spans(t) for p in s.pledges
        ]
        import pytest

        assert span_latencies == pair_latencies
        assert span_latencies == pytest.approx([0.4, 0.9])


class TestRealRunAgreement:
    def test_span_latencies_recompute_from_raw_trace(self):
        """Every pledge echo's latency equals the raw record timestamps."""
        cfg = ExperimentConfig(
            protocol="realtor", arrival_rate=30.0, horizon=300.0, seed=3,
            trace=True, per_hop_latency=0.01,
        )
        system = build_system(cfg)
        system.run()
        trace = system.sim.trace
        spans = build_help_spans(trace)
        answered = [s for s in spans if s.answered]
        assert answered, "run produced no answered HELP spans"

        sent_at = {
            (r.payload["node"], r.payload["help_id"]): r.time
            for r in trace.select("help-sent")
            if r.payload.get("help_id", -1) >= 0
        }
        echoes = 0
        for span in spans:
            for pledge in span.pledges:
                expected = pledge.time - sent_at[(span.organizer, span.help_id)]
                assert abs(pledge.latency - expected) < 1e-12
                echoes += 1
        # completeness: every correlated pledge-recv landed in some span
        correlated = sum(
            1
            for r in trace.select("pledge-recv")
            if r.payload.get("help_id", -1) >= 0
        )
        assert echoes == correlated

    def test_placement_spans_cover_all_settlements(self):
        cfg = ExperimentConfig(
            protocol="realtor", arrival_rate=30.0, horizon=300.0, seed=3, trace=True
        )
        system = build_system(cfg)
        system.run()
        trace = system.sim.trace
        spans = build_placement_spans(trace)
        migrated = [s for s in spans if s.outcome == "migrated"]
        assert len(migrated) == trace.count("migration")
        assert all(s.tries for s in spans)
