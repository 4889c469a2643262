"""Run-wide observability: trace sinks, kernel profiler, causality spans,
and live sweep telemetry.

The simulation's only windows used to be the in-memory
:class:`~repro.sim.trace.Tracer` (lost on exit) and the terminal
:class:`~repro.metrics.collector.RunResult`.  This package makes runs
inspectable after the fact and while they happen:

* :mod:`repro.obs.sinks` — the streaming JSONL file sink for
  ``Tracer.add_sink`` (buffered, rotating, summary footer);
* :mod:`repro.obs.profiler` — wall-time/event-count attribution per
  callback and per subsystem, fed by the kernel's one run loop
  (``Simulator.run(profile=...)``);
* :mod:`repro.obs.spans` — HELP→PLEDGE and placement/evacuation
  negotiation chains correlated into span records with latencies and
  hop counts;
* :mod:`repro.obs.telemetry` — live progress/ETA and per-protocol
  rolling summaries for long sweeps (``python -m repro.experiments
  --observe``);
* :mod:`repro.obs.registry` — the run-wide metrics registry: it samples
  the collector's counts, histograms and vectorized node-state probes
  into per-run time series on one shared kernel heap entry, and writes
  a run's series as JSONL/CSV files;
* :mod:`repro.obs.recorder` — the flight recorder: last-N event and
  registry-snapshot rings, dumped with cell identity on run exceptions;
* :mod:`repro.obs.inspect` — survivability reports over a warm
  :class:`~repro.experiments.store.RunStore` with zero simulation
  (``python -m repro.obs inspect/diff/timeline`` is the CLI).
"""

from .config import ObsConfig
from .profiler import KernelProfiler, ProfileReport
from .recorder import FlightRecorder, cell_identity
from .registry import Histogram, MetricsRegistry, TimeSeries, install_run_probes
from .sinks import JsonLinesSink, record_to_json
from .spans import (
    HelpSpan,
    PlacementSpan,
    build_help_spans,
    build_placement_spans,
)
from .telemetry import ProgressReporter

__all__ = [
    "JsonLinesSink",
    "record_to_json",
    "KernelProfiler",
    "ProfileReport",
    "HelpSpan",
    "PlacementSpan",
    "build_help_spans",
    "build_placement_spans",
    "ProgressReporter",
    "ObsConfig",
    "MetricsRegistry",
    "Histogram",
    "TimeSeries",
    "install_run_probes",
    "FlightRecorder",
    "cell_identity",
]
