"""Unit tests for the tracer."""

from repro.sim.trace import Tracer
from tests.oracles import trace_pairs


class TestEmit:
    def test_records_in_order(self):
        t = Tracer()
        t.emit(1.0, "a", x=1)
        t.emit(2.0, "b", x=2)
        assert [r.category for r in t.records] == ["a", "b"]
        assert t.records[0]["x"] == 1

    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        t.emit(1.0, "a")
        assert len(t) == 0

    def test_category_filter(self):
        t = Tracer(categories={"keep"})
        t.emit(1.0, "keep")
        t.emit(1.0, "drop")
        assert [r.category for r in t.records] == ["keep"]

    def test_limit_drops_excess(self):
        t = Tracer(limit=3)
        for i in range(5):
            t.emit(float(i), "x")
        assert len(t) == 3
        assert t.dropped == 2

    def test_sink_streams_records(self):
        t = Tracer()
        seen = []
        t.add_sink(lambda r: seen.append(r.category))
        t.emit(0.0, "live")
        assert seen == ["live"]

    def test_full_tracer_without_sinks_skips_record_construction(self):
        t = Tracer(limit=1)
        t.emit(0.0, "x")
        t.emit(1.0, "x")  # over the limit: counted, nothing built
        assert len(t) == 1
        assert t.dropped == 1

    def test_sink_still_streams_past_limit(self):
        t = Tracer(limit=1)
        seen = []
        t.add_sink(lambda r: seen.append(r.time))
        t.emit(0.0, "x")
        t.emit(1.0, "x")
        assert len(t) == 1  # stored records stay capped
        assert t.dropped == 1
        assert seen == [0.0, 1.0]  # but the stream sees everything

    def test_remove_sink(self):
        t = Tracer()
        seen = []
        sink = seen.append
        t.add_sink(sink)
        t.emit(0.0, "x")
        t.remove_sink(sink)
        t.emit(1.0, "x")
        assert len(seen) == 1
        t.remove_sink(sink)  # absent: no error

    def test_close_sinks_passes_summary(self):
        class Closeable:
            def __init__(self):
                self.closed_with = None

            def __call__(self, rec):
                pass

            def close(self, summary=None):
                self.closed_with = summary

        t = Tracer(limit=2)
        sink = Closeable()
        t.add_sink(sink)
        t.add_sink(lambda r: None)  # plain callables survive close_sinks
        for i in range(3):
            t.emit(float(i), "x")
        t.close_sinks()
        assert sink.closed_with == {
            "recorded": 2,
            "dropped": 1,
            "limit": 2,
            "categories": {"x": 2},
        }


class TestQueries:
    def test_select_by_payload(self):
        t = Tracer()
        t.emit(0.0, "mig", src=1, dst=2)
        t.emit(1.0, "mig", src=1, dst=3)
        assert len(t.select("mig", src=1)) == 2
        assert len(t.select("mig", dst=3)) == 1
        assert t.count("mig") == 2

    def test_categories_seen_histogram(self):
        t = Tracer()
        t.emit(0.0, "a")
        t.emit(0.0, "a")
        t.emit(0.0, "b")
        assert t.categories_seen() == {"a": 2, "b": 1}

    def test_pairs_matches_request_response(self):
        t = Tracer()
        t.emit(0.0, "req", id=1)
        t.emit(1.0, "rsp", id=1)
        t.emit(2.0, "req", id=2)
        t.emit(3.0, "rsp", id=2)
        pairs = trace_pairs(t, "req", "rsp")
        assert len(pairs) == 2
        assert all(a.time < b.time for a, b in pairs)

    def test_pairs_unmatched_request_left_out(self):
        t = Tracer()
        t.emit(0.0, "req")
        t.emit(1.0, "rsp")
        t.emit(2.0, "req")  # never answered
        assert len(trace_pairs(t, "req", "rsp")) == 1

    def test_summary_accounts_stored_and_dropped(self):
        t = Tracer(limit=2)
        t.emit(0.0, "a")
        t.emit(1.0, "b")
        t.emit(2.0, "b")  # over the cap
        assert t.summary() == {
            "recorded": 2,
            "dropped": 1,
            "limit": 2,
            "categories": {"a": 1, "b": 1},
        }

    def test_index_matches_linear_scan(self):
        t = Tracer()
        for i in range(20):
            t.emit(float(i), "even" if i % 2 == 0 else "odd", i=i)
        for cat in ("even", "odd", "missing"):
            scan = [r for r in t.records if r.category == cat]
            assert t.select(cat) == scan
            assert t.count(cat) == len(scan)
        assert t.count("even", i=4) == 1
        assert t.select("odd", i=4) == []

    def test_dropped_records_stay_out_of_the_index(self):
        t = Tracer(limit=1)
        t.add_sink(lambda r: None)  # keeps record construction past cap
        t.emit(0.0, "x")
        t.emit(1.0, "x")
        assert t.count("x") == 1
        assert t.categories_seen() == {"x": 1}
