#!/usr/bin/env python
"""Observing a run: trace sinks, the kernel profiler and causality spans.

A walk-through of the observability layer (`repro.obs`) on one
overloaded REALTOR run:

1. stream the full trace to a JSONL file while the in-memory tracer
   stays bounded,
2. profile the kernel — which subsystem burns the wall time?
3. rebuild HELP->PLEDGE and placement causality spans from the trace
   and draw them as ASCII timelines.

The script asserts its own invariants as it goes (the JSONL file parses
line-by-line, span counts agree with the tracer's counters), so CI runs
it as the observability smoke test:

Run:  python examples/observe_run.py [trace.jsonl]
"""

import json
import sys
from pathlib import Path

from repro import build_system, paper_config
from repro.analysis.ascii_chart import render_spans, render_timeline
from repro.obs import JsonLinesSink, KernelProfiler, build_help_spans, build_placement_spans
from repro.obs.sinks import TRACE_FORMAT


def main(trace_path: str = "observe_trace.jsonl") -> None:
    # overload the 5x5 mesh so discovery, migration and rejection all fire
    cfg = paper_config("realtor", arrival_rate=30.0, horizon=400.0, seed=7)
    cfg = cfg.with_(trace=True, per_hop_latency=0.01)
    system = build_system(cfg)

    print("=== 1. streaming the trace to a JSONL sink ===")
    path = Path(trace_path)
    sink = JsonLinesSink(path, buffer_records=256)
    system.sim.trace.add_sink(sink)

    print("=== 2. profiling the kernel while it runs ===")
    profiler = KernelProfiler()
    system.run(profile=profiler)
    system.sim.trace.close_sinks()
    result = system.result()

    trace = system.sim.trace
    print(
        f"run done: t={system.sim.now:g}s, "
        f"P(admit)={result.admission_probability:.3f}, "
        f"{len(trace)} trace records in memory, "
        f"{sink.records_written} streamed to {path}"
    )

    # -- smoke assertion: every line of the file is valid JSON, framed
    #    by the format header and a footer that matches the tracer
    lines = [json.loads(s) for s in path.read_text().splitlines()]
    assert lines[0] == {"format": TRACE_FORMAT}
    footer = lines[-1]
    assert footer["footer"] is True
    assert footer["summary"] == trace.summary()
    records = [l for l in lines if "c" in l]
    assert len(records) == sink.records_written
    print(f"JSONL checks out: {len(records)} records, footer matches summary\n")

    report = profiler.report()
    assert report.accounted_fraction >= 0.95  # the profiler's contract
    # -- smoke assertions: the profiler timed the loop that ships — every
    #    event is in the report and the run still batched its cohorts
    assert report.events_executed == system.sim.events_executed
    assert system.sim.cohort_stats()["cohorts"] > 0
    print(report.format(top=8))
    print()

    print("=== 3. causality spans rebuilt from the trace ===")
    help_spans = build_help_spans(trace)
    placements = build_placement_spans(trace)

    # -- smoke assertions: span accounting agrees with the raw tracer
    assert len(help_spans) == sum(
        1 for r in trace.select("help-sent") if r.payload.get("help_id", -1) >= 0
    )
    assert sum(len(s.pledges) for s in help_spans) == sum(
        1 for r in trace.select("pledge-recv") if r.payload.get("help_id", -1) >= 0
    )
    assert (
        sum(1 for s in placements if s.outcome == "migrated")
        == trace.count("migration")
    )

    answered = [s for s in help_spans if s.answered]
    latencies = sorted(s.first_latency for s in answered)
    print(
        f"{len(help_spans)} HELP rounds, {len(answered)} answered; "
        f"median first-pledge latency "
        f"{latencies[len(latencies) // 2]:.3f}s, "
        f"max responder distance {max(s.max_hops for s in answered)} hops"
    )
    print(
        f"{len(placements)} placement chains: "
        + ", ".join(
            f"{outcome}={sum(1 for s in placements if s.outcome == outcome)}"
            for outcome in ("migrated", "evacuated", "rejected", "lost", None)
            if any(s.outcome == outcome for s in placements)
        )
    )
    print()

    print(render_timeline(
        trace.records,
        categories=["help-sent", "pledge-recv", "candidate-try",
                    "migration", "rejection"],
        width=60,
        title="Event density over the run (darker = more events per bucket)",
    ))
    print()
    window = [s for s in answered if s.sent_at < 60.0][:12]
    print(render_spans(
        window,
        width=60,
        title="First HELP rounds: flood to last correlated PLEDGE",
    ))
    print()
    print(f"full trace kept at {path} — every line is one JSON record")


if __name__ == "__main__":
    main(*sys.argv[1:2])
