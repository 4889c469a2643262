"""Byte-stable JSONL traces and span reconstruction at the 2500-node tier.

The scaling tiers are where floods deliver to large groups in one
event, so these tests pin the observability contract at scale: identical
runs stream byte-identical JSONL trace files, an obs-enabled run
streams the same bytes as an obs-less one, and the file round-trips into
records that reconstruct the same HELP/placement spans as the in-memory
trace.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.obs.config import ObsConfig
from repro.obs.inspect import load_trace_jsonl
from repro.obs.sinks import JsonLinesSink
from repro.obs.spans import build_help_spans, build_placement_spans
from tests.oracles import group_sizes


def _tier_config(obs=None) -> ExperimentConfig:
    # mirrors the grouped fan-out tier cell: load against a small queue
    # keeps HELP floods and migrations active from the first second
    return ExperimentConfig(
        protocol="realtor",
        topology="torus",
        nodes=2500,
        arrival_rate=750.0,
        queue_capacity=12.0,
        horizon=4.0,
        seed=11,
        trace=True,
        obs=obs,
    )


def _traced_to_file(path, obs=None):
    """Run the tier cell streaming its trace to ``path``; return the
    system and the size of every group event its transport delivered."""
    system = build_system(_tier_config(obs=obs))
    sizes = group_sizes(system.transport)
    system.sim.trace.add_sink(JsonLinesSink(path, buffer_records=4096))
    system.run()
    system.result()
    system.sim.trace.close_sinks()
    return system, sizes


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "baseline.jsonl"
    system, sizes = _traced_to_file(path)
    return path, system, sizes


class TestByteStability:
    def test_repeat_run_streams_identical_bytes(self, baseline, tmp_path):
        path_a, _system, sizes = baseline
        # floods must actually deliver in groups here, otherwise this
        # tier proves nothing about grouped delivery
        groups = [n for n in sizes if n > 1]  # a unicast is a post of one
        assert len(groups) > 100
        assert sum(groups) > 1000
        path_b = tmp_path / "repeat.jsonl"
        _traced_to_file(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_obs_enabled_run_streams_identical_bytes(self, baseline, tmp_path):
        path_a, _system, _sizes = baseline
        path_b = tmp_path / "obs.jsonl"
        system, _ = _traced_to_file(path_b, obs=ObsConfig())
        assert system.registry is not None  # obs really was on
        assert system.recorder.snapshots_seen > 0
        assert path_a.read_bytes() == path_b.read_bytes()


class TestSpanReconstruction:
    def test_file_round_trips_to_in_memory_records(self, baseline):
        path, system, _sizes = baseline
        from_file = load_trace_jsonl(path)
        in_memory = list(system.sim.trace.records)
        assert len(from_file) == len(in_memory)
        for a, b in zip(from_file, in_memory):
            assert (a.time, a.category, a.payload) == (
                b.time, b.category, b.payload,
            )

    def test_spans_rebuild_from_file(self, baseline):
        path, system, _sizes = baseline
        records = load_trace_jsonl(path)
        helps = build_help_spans(records)
        places = build_placement_spans(records)
        # an overloaded 2500-node tier floods constantly
        assert len(helps) > 50
        assert any(s.answered for s in helps)
        assert len(places) > 100
        assert any(s.settled for s in places)
        # spans from the file match spans from the in-memory trace
        mem_helps = build_help_spans(list(system.sim.trace.records))
        assert len(helps) == len(mem_helps)
        assert sum(s.answered for s in helps) == sum(
            s.answered for s in mem_helps
        )
