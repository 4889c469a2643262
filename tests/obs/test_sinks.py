"""Streaming trace sink tests: determinism, buffering, rotation, footers."""

import json

import pytest

from repro.obs.sinks import TRACE_FORMAT, JsonLinesSink, record_to_json
from repro.sim.trace import TraceRecord, Tracer


class TestRecordToJson:
    def test_line_layout(self):
        line = record_to_json(TraceRecord(1.5, "mig", {"src": 1, "dst": 2}))
        obj = json.loads(line)
        assert obj == {"c": "mig", "p": {"src": 1, "dst": 2}, "t": 1.5}

    def test_keys_sorted_and_compact(self):
        line = record_to_json(TraceRecord(0.0, "x", {"b": 1, "a": 2}))
        assert line == '{"c":"x","p":{"a":2,"b":1},"t":0.0}'

    def test_payload_insertion_order_irrelevant(self):
        a = record_to_json(TraceRecord(0.0, "x", {"b": 1, "a": 2}))
        b = record_to_json(TraceRecord(0.0, "x", {"a": 2, "b": 1}))
        assert a == b


class TestJsonLinesSink:
    def test_header_records_footer(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        t = Tracer()
        t.add_sink(JsonLinesSink(path, buffer_records=1))
        t.emit(0.0, "a", x=1)
        t.emit(1.0, "b")
        t.close_sinks()
        lines = [json.loads(s) for s in path.read_text().splitlines()]
        assert lines[0] == {"format": TRACE_FORMAT}
        assert lines[1] == {"c": "a", "p": {"x": 1}, "t": 0.0}
        assert lines[2] == {"c": "b", "p": {}, "t": 1.0}
        footer = lines[3]
        assert footer["footer"] is True
        assert footer["records_written"] == 2
        assert footer["summary"]["recorded"] == 2
        assert footer["summary"]["dropped"] == 0

    def test_buffering_defers_writes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonLinesSink(path, buffer_records=100)
        sink(TraceRecord(0.0, "x"))
        # buffered: only the header has hit the file handle so far
        assert '"c"' not in path.read_text()
        sink.flush()
        assert '"c":"x"' in path.read_text()
        sink.close()

    def test_rotation_renames_active_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonLinesSink(path, buffer_records=1, rotate_bytes=100)
        for i in range(20):
            sink(TraceRecord(float(i), "rotated-category-padding"))
        sink.close()
        assert sink.rotations >= 1
        rotated = tmp_path / "trace.jsonl.1"
        assert rotated.exists()
        # every segment starts with the format header
        for p in [path, rotated]:
            first = json.loads(p.read_text().splitlines()[0])
            assert first["format"] == TRACE_FORMAT
        # no record lost across segments
        total = 0
        for p in sorted(tmp_path.glob("trace.jsonl*")):
            for line in p.read_text().splitlines():
                total += "c" in json.loads(line)
        assert total == 20

    def test_close_idempotent(self, tmp_path):
        sink = JsonLinesSink(tmp_path / "t.jsonl", buffer_records=1)
        sink(TraceRecord(0.0, "x"))
        sink.close()
        sink.close()
        sink(TraceRecord(1.0, "late"))  # ignored after close
        text = (tmp_path / "t.jsonl").read_text()
        assert text.count('"footer": true') == 1
        assert "late" not in text

    def test_context_manager(self, tmp_path):
        with JsonLinesSink(tmp_path / "t.jsonl") as sink:
            sink(TraceRecord(0.0, "x"))
        assert '"footer": true' in (tmp_path / "t.jsonl").read_text()

    def test_invalid_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            JsonLinesSink(tmp_path / "t.jsonl", buffer_records=0)
        with pytest.raises(ValueError):
            JsonLinesSink(tmp_path / "t.jsonl", rotate_bytes=0)

    def test_streams_past_tracer_cap_with_footer_accounting(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        t = Tracer(limit=3)
        t.add_sink(JsonLinesSink(path, buffer_records=1))
        for i in range(10):
            t.emit(float(i), "x")
        t.close_sinks()
        assert len(t) == 3 and t.dropped == 7
        lines = [json.loads(s) for s in path.read_text().splitlines()]
        records = [l for l in lines if "c" in l]
        assert len(records) == 10  # the file has the complete stream
        footer = lines[-1]
        assert footer["summary"] == {
            "recorded": 3,
            "dropped": 7,
            "limit": 3,
            "categories": {"x": 3},
        }
        assert footer["records_written"] == 10


class TestGoldenTraceFile:
    """Acceptance: a seeded run writes a byte-identical trace, twice."""

    def _run(self, path):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import build_system

        cfg = ExperimentConfig(
            protocol="realtor", arrival_rate=25.0, horizon=120.0, seed=7, trace=True
        )
        system = build_system(cfg)
        sink = JsonLinesSink(path, buffer_records=64)
        system.sim.trace.add_sink(sink)
        system.run()
        system.sim.trace.close_sinks()
        return path.read_bytes()

    def test_two_invocations_byte_identical(self, tmp_path):
        a = self._run(tmp_path / "a.jsonl")
        b = self._run(tmp_path / "b.jsonl")
        assert len(a) > 1000  # a real trace, not an empty shell
        assert a == b

    def test_file_round_trips_to_records(self, tmp_path):
        self._run(tmp_path / "a.jsonl")
        records = []
        for line in (tmp_path / "a.jsonl").read_text().splitlines():
            obj = json.loads(line)
            if "c" in obj:
                records.append(TraceRecord(obj["t"], obj["c"], obj["p"]))
        assert records, "trace file contained no records"
        # parsed records are span-buildable (see test_spans for semantics)
        from repro.obs.spans import build_help_spans

        assert build_help_spans(records)
