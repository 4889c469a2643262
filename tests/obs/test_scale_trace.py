"""Byte-stable JSONL traces and span reconstruction at the 2 500-node
tier, where floods deliver to large groups in one event: identical runs
and an obs-enabled run stream the same bytes (rows of
:mod:`tests.contracts`), and the file round-trips into records that
rebuild the same HELP and placement spans as the in-memory trace.
"""

import pytest

from repro.obs.inspect import load_trace_jsonl
from repro.obs.spans import build_help_spans, build_placement_spans
from tests.contracts import check, observe


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    run = observe("torus-2500", "jsonl")
    path = tmp_path_factory.mktemp("trace") / "baseline.jsonl"
    path.write_bytes(run.jsonl)
    return path, run


class TestByteStability:
    def test_repeat_run_streams_identical_bytes(self):
        run, _repeat = check("torus-2500.jsonl")
        # floods must deliver in groups here, or this tier proves nothing
        # about grouped delivery (a unicast is a post of one)
        groups = [n for n in run.groups if n > 1]
        assert len(groups) > 100
        assert sum(groups) > 1000

    def test_obs_enabled_run_streams_identical_bytes(self):
        _run, with_obs = check("torus-2500.obs")
        assert with_obs.facts["snapshots_seen"] > 0  # obs really was on


class TestSpanReconstruction:
    def test_file_round_trips_to_in_memory_records(self, baseline):
        path, run = baseline
        from_file = load_trace_jsonl(path)
        in_memory = list(run.records)
        assert len(from_file) == len(in_memory)
        for a, b in zip(from_file, in_memory):
            assert (a.time, a.category, a.payload) == (
                b.time, b.category, b.payload,
            )

    def test_spans_rebuild_from_file(self, baseline):
        path, run = baseline
        records = load_trace_jsonl(path)
        helps = build_help_spans(records)
        places = build_placement_spans(records)
        # an overloaded 2500-node tier floods constantly
        assert len(helps) > 50
        assert any(s.answered for s in helps)
        assert len(places) > 100
        assert any(s.settled for s in places)
        # spans from the file match spans from the in-memory trace
        mem_helps = build_help_spans(list(run.records))
        assert len(helps) == len(mem_helps)
        assert sum(s.answered for s in helps) == sum(
            s.answered for s in mem_helps
        )
