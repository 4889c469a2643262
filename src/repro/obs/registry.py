"""The run-wide metrics registry: survivability trajectories at scale.

A :class:`MetricsRegistry` samples a run's state on a simulated-time
cadence and records each quantity as a :class:`TimeSeries`.  It counts
nothing itself: the run's counts are made once, by the
:class:`~repro.metrics.collector.MetricsCollector`, and the probes read
them.  Two design rules keep it affordable at the 2.5k–10k-node tiers:

* **One heap entry, not O(samples).**  The tick is one
  :meth:`~repro.sim.kernel.Agenda.periodic` timer at
  ``Priority.SAMPLING``, so an enabled registry adds a single
  self-rescheduling event regardless of cadence, and leaves through the
  tracked-cancellation path at run end.
* **Vectorized probes.**  The per-node survivability quantities (queue
  depth distribution, busy/live/available node counts) are read straight
  off the :class:`~repro.node.state_arrays.NodeStateArrays` columns in a
  handful of array ops; O(V) Python-object sums (per-agent retry /
  eviction counters) are *strided* to every Nth tick.

Sampling at ``Priority.SAMPLING`` (the highest band) means every tick
observes post-event state at its timestamp.  A tick is stamped with the
instant its timer was due: the simulator's clock, and on the live
scheduler, where a tick may run late but still runs before anything due
after it, the instant whose state it reads.  Because the registry
touches no RNG stream and emits no trace records, enabling it leaves
the executed event sequence, the trace, and every core result field
bit-identical — pinned by ``tests/obs/test_metrics_registry.py``.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_right
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..sim.events import Priority
from ..sim.kernel import PeriodicTimer, Simulator

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
    "install_run_probes",
    "load_series_jsonl",
    "save_series_csv",
    "save_series_jsonl",
    "AGENT_STRIDE",
    "REGISTRY_FORMAT",
    "SERIES_FORMAT_TAG",
]

REGISTRY_FORMAT = "repro-registry/1"
SERIES_FORMAT_TAG = "repro-series/1"
#: ticks between runs of the deep probes (:func:`install_run_probes`)
AGENT_STRIDE = 32
#: bins of the accumulated queue-usage histogram over [0, 1]
USAGE_BINS = 10


class TimeSeries:
    """Append-only (time, value) series backed by NumPy buffers."""

    # slots: the registry appends to ~20 of these per sampling tick on the
    # hot path; fixed attribute offsets keep that cheap
    __slots__ = ("name", "_t", "_v", "_n")

    def __init__(self, name: str = "", initial_capacity: int = 256) -> None:
        self.name = name
        self._t = np.empty(initial_capacity, dtype=np.float64)
        self._v = np.empty(initial_capacity, dtype=np.float64)
        self._n = 0

    def append(self, t: float, v: float) -> None:
        if self._n == self._t.shape[0]:
            # Explicit grow-and-copy: ``np.resize`` fills the tail by
            # *repeating* the existing data, which silently duplicates
            # samples into the uninitialised region if anything ever
            # reads past ``_n``.  An empty buffer plus one copy keeps the
            # tail garbage-but-unreachable, like a list's growth.
            grown_t = np.empty(self._n * 2, dtype=np.float64)
            grown_v = np.empty(self._n * 2, dtype=np.float64)
            grown_t[: self._n] = self._t
            grown_v[: self._n] = self._v
            self._t = grown_t
            self._v = grown_v
        self._t[self._n] = t
        self._v[self._n] = v
        self._n += 1

    def __len__(self) -> int:
        return self._n

    @property
    def times(self) -> np.ndarray:
        """View (not a copy) of the recorded sample times."""
        return self._t[: self._n]

    @property
    def values(self) -> np.ndarray:
        """View (not a copy) of the recorded sample values."""
        return self._v[: self._n]


class Histogram:
    """Fixed-bin histogram accumulated from whole numpy columns.

    ``edges`` are the ``len(counts) + 1`` bin boundaries
    (``numpy.histogram`` convention); out-of-range values clamp into the
    end bins.  :meth:`accumulate` adds one vectorized pass over a
    column — e.g. every node's queue usage at a tick — so the final
    counts describe the distribution over (node, tick) samples.
    """

    __slots__ = ("name", "edges", "counts", "_uniform", "_lo", "_scale", "_edge_list")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        self.name = name
        self.edges = np.asarray(edges, dtype=np.float64)
        if self.edges.ndim != 1 or self.edges.shape[0] < 2:
            raise ValueError("need at least two bin edges")
        nbins = self.edges.shape[0] - 1
        self.counts = np.zeros(nbins, dtype=np.int64)
        # Uniform edges take the O(n) bincount path per tick; np.histogram
        # is an order of magnitude more call overhead on small columns.
        gaps = np.diff(self.edges)
        self._uniform = bool(np.allclose(gaps, gaps[0]))
        self._lo = float(self.edges[0])
        self._scale = nbins / float(self.edges[-1] - self.edges[0])
        #: what :meth:`observe` bisects: a tenth of a scalar ``np.searchsorted``
        self._edge_list = self.edges.tolist()

    def accumulate(self, values: np.ndarray) -> None:
        if self._uniform:
            nbins = self.counts.shape[0]
            idx = ((values - self._lo) * self._scale).astype(np.int64)
            np.clip(idx, 0, nbins - 1, out=idx)
            self.counts += np.bincount(idx, minlength=nbins)
        else:
            clipped = np.clip(values, self.edges[0], self.edges[-1])
            self.counts += np.histogram(clipped, bins=self.edges)[0]

    def observe(self, value: float) -> None:
        """Add one scalar observation (the live runtime's per-event path).

        Same clamp-into-end-bins convention as :meth:`accumulate`, so a
        column accumulated at once and the same column observed value by
        value produce identical counts.
        """
        nbins = self.counts.shape[0]
        if self._uniform:
            idx = int((value - self._lo) * self._scale)
        else:
            idx = bisect_right(self._edge_list, value) - 1
        if idx < 0:
            idx = 0
        elif idx >= nbins:
            idx = nbins - 1
        self.counts[idx] += 1

    def percentile(self, q: float) -> float:
        """Approximate the ``q``-th percentile (0-100) from the bin counts.

        Linear interpolation within the bin containing the rank; exact at
        bin edges, NaN on an empty histogram.  Resolution is the bin
        width — callers needing exact order statistics should keep raw
        samples; this serves rollups where the histogram is all that is
        retained.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        total = int(self.counts.sum())
        if total == 0:
            return float("nan")
        rank = q / 100.0 * total
        cum = 0
        for i, count in enumerate(self.counts):
            prev = cum
            cum += int(count)
            if cum >= rank:
                lo = float(self.edges[i])
                hi = float(self.edges[i + 1])
                if count == 0:
                    return lo
                frac = (rank - prev) / float(count)
                return lo + frac * (hi - lo)
        return float(self.edges[-1])

    def total(self) -> int:
        return int(self.counts.sum())


class MetricsRegistry:
    """Named metrics sampled on one shared simulated-time cadence.

    Two sampler flavours, both reporting through :meth:`record` (which
    lazily creates one :class:`TimeSeries` per metric name, so dynamic
    names — per-message-kind rates — need no pre-registration):

    * :meth:`add_sampler` — lean ``fn(now)``, runs on every tick;
    * :meth:`add_deep_sampler` — ``fn(now)`` with a per-sampler
      ``stride``, runs on every ``stride``-th tick.  The registry
      guarantees every deep sampler also runs at the end-of-run clock
      (:meth:`finish`), so strided series close at the horizon
      regardless of phase.
    """

    def __init__(self, sim: Simulator, *, interval: float) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval = float(interval)
        self.series: Dict[str, TimeSeries] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: most recent sampled value per metric (feeds recorder snapshots)
        self.latest: Dict[str, float] = {}
        self.ticks = 0
        self._samplers: List[Callable[[float], None]] = []
        #: [fn, stride, tick the sampler last ran on] triples
        self._deep_samplers: List[list] = []
        self._timer: Optional[PeriodicTimer] = None
        self._recorder = None
        self._last_sample_at: Optional[float] = None
        self._finished = False

    # Metric construction ------------------------------------------------

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, edges)
        return h

    def add_sampler(self, fn: Callable[[float], None]) -> None:
        """Register ``fn(now)`` to run on every tick."""
        self._samplers.append(fn)

    def add_deep_sampler(
        self, fn: Callable[[float], None], *, stride: int = 1
    ) -> None:
        """Register ``fn(now)`` to run every ``stride``-th tick.

        Deep samplers carry the O(V) probes; the stride amortises their
        cost.  :meth:`finish` runs every deep sampler one last time at
        the end-of-run clock if the final tick missed its stride phase.
        """
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self._deep_samplers.append([fn, int(stride), 0])

    def attach_recorder(self, recorder) -> None:
        """Snapshot :attr:`latest` into ``recorder`` after every tick."""
        self._recorder = recorder

    # Sampling -----------------------------------------------------------

    def record(self, now: float, name: str, value: float) -> None:
        """Append one (time, value) point to the named series."""
        ts = self.series.get(name)
        if ts is None:
            ts = self.series[name] = TimeSeries(name)
        ts.append(now, value)
        self.latest[name] = value

    def sample(self, final: bool = False, at: Optional[float] = None) -> None:
        """Take one sample of everything, timestamped at ``at`` (default
        ``sim.now``)."""
        now = self.sim.now if at is None else at
        self.ticks += 1
        self._last_sample_at = now
        for fn in self._samplers:
            fn(now)
        tick = self.ticks
        for entry in self._deep_samplers:
            if final or (tick - 1) % entry[1] == 0:
                entry[0](now)
                entry[2] = tick
        if self._recorder is not None:
            self._recorder.record_snapshot(now, dict(self.latest))

    def _tick(self) -> None:
        # the simulator's clock reads the same float; a late live tick
        # reads the state of this instant, so it is stamped with it
        self.sample(at=self._timer.due)

    def start(self) -> None:
        """Take the t=0 baseline and start the sampling timer."""
        if self._timer is not None:
            raise RuntimeError("registry already started")
        self.sample(final=False)
        self._timer = self.sim.periodic(
            self.interval, self._tick, priority=Priority.SAMPLING
        )

    def finish(self, at: Optional[float] = None) -> None:
        """Stop sampling (tracked cancel) and close the trajectories.

        Idempotent.  Takes one final sample at ``at`` (default: the
        current clock) unless the last periodic tick already landed there
        (in which case only the deep samplers that missed that tick run),
        so every series — lean and strided alike — ends exactly at the
        end-of-run instant.
        """
        if self._finished:
            return
        self._finished = True
        if self._timer is not None:
            self._timer.stop()
        now = self.sim.now if at is None else at
        if self._last_sample_at != now:
            self.sample(final=True, at=now)
            return
        # The cadence landed exactly on the end of run, so the lean
        # series already close at the horizon — but deep samplers whose
        # stride phase missed that last tick still need their closing
        # point (and the recorder a snapshot of the completed set).
        ran_any = False
        for entry in self._deep_samplers:
            if entry[2] != self.ticks:
                entry[0](now)
                entry[2] = self.ticks
                ran_any = True
        if ran_any and self._recorder is not None:
            self._recorder.record_snapshot(now, dict(self.latest))

    @property
    def started(self) -> bool:
        return self._timer is not None

    # Export -------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """The latest sampled value of every metric (a copy)."""
        return dict(self.latest)

    def to_payload(self) -> Dict[str, object]:
        """JSON-ready dump of every trajectory and histogram.

        This is what :meth:`System.result
        <repro.experiments.runner.System.result>` attaches as
        ``RunResult.series`` — plain lists of Python floats, so the
        run-store JSON round-trip is exact and deterministic.
        """
        return {
            "format": REGISTRY_FORMAT,
            "interval": self.interval,
            "ticks": self.ticks,
            "series": {
                name: {"t": ts.times.tolist(), "v": ts.values.tolist()}
                for name, ts in sorted(self.series.items())
            },
            "histograms": {
                name: {
                    "edges": hist.edges.tolist(),
                    "counts": hist.counts.tolist(),
                }
                for name, hist in sorted(self.histograms.items())
            },
        }


def install_run_probes(
    registry: MetricsRegistry,
    *,
    state,
    collector,
    transport,
    coordinator=None,
    admissions: Iterable = (),
    agents: Iterable = (),
    settle: Callable[[float], None],
) -> None:
    """Wire the standard survivability probes of one assembled system.

    Installs two samplers on different cadences:

    * **lean, every tick** — vectorized
      :class:`~repro.node.state_arrays.NodeStateArrays` column reads
      (live/busy/available node counts, total backlog, mean queue
      usage) plus the O(1) task counters (generated/admitted/
      completed/rejected/lost), transport message counters
      (sent/delivered/dropped) and per-kind weighted message costs.
      The column math runs in-place over preallocated scratch buffers,
      so a tick allocates nothing proportional to V.  ``settle(now)``
      retires the tasks due by the tick first (queues retire lazily),
      so the completed count is the tick's.
    * **deep, every :data:`AGENT_STRIDE`-th tick and at end of run** — the
      queue-usage distribution (p50/p90/max from one in-place sort,
      plus the accumulated usage histogram) and the O(V) per-agent
      hardening sums — HELP retries, view evictions, negotiation
      timeouts.  These are the probes whose cost scales with node
      count; the stride keeps the registry inside the <5% overhead
      budget on the 2500-node macro cell.
    """
    tasks = collector.tasks
    by_kind = collector.messages.by_kind
    helps = [a.help for a in agents if a.help is not None]
    views = [a.view for a in agents if hasattr(a, "view")]
    adms = [a for a in admissions if hasattr(a, "timeouts_fired")]
    usage_hist = registry.histogram(
        "queue_usage", np.linspace(0.0, 1.0, USAGE_BINS + 1)
    )
    busy_until = state.busy_until
    capacity = state.capacity
    threshold = state.threshold
    up = state.up
    record = registry.record

    n = len(state.ids)
    i50 = (n - 1) // 2
    i90 = min(n - 1, (9 * (n - 1)) // 10)
    backlog = np.empty_like(busy_until)
    usage = np.empty_like(busy_until)
    mask = np.empty(n, dtype=bool)
    kind_names: Dict[str, str] = {}

    def probe(now: float) -> None:
        # Lean per-tick core: in-place column math over scratch buffers.
        np.subtract(busy_until, now, out=backlog)
        np.maximum(backlog, 0.0, out=backlog)
        np.divide(backlog, capacity, out=usage)
        np.minimum(usage, 1.0, out=usage)
        record(now, "nodes_live", float(np.count_nonzero(up)))
        # busy_until > now  <=>  clamped backlog > 0
        record(now, "nodes_busy", float(np.count_nonzero(backlog > 0.0)))
        np.less(usage, threshold, out=mask)
        np.logical_and(mask, up, out=mask)
        record(now, "nodes_available", float(np.count_nonzero(mask)))
        record(now, "queue_backlog_total", float(backlog.sum()))
        record(now, "queue_usage_mean", float(usage.mean()))
        # O(1) cumulative counters.
        record(now, "tasks_generated", float(tasks.generated))
        record(
            now,
            "tasks_admitted",
            float(tasks.admitted_local + tasks.admitted_migrated),
        )
        settle(now)
        record(now, "tasks_completed", float(tasks.completed))
        record(now, "tasks_rejected", float(tasks.rejected))
        record(now, "tasks_lost", float(tasks.lost))
        record(now, "messages_sent", float(transport.sent_messages))
        record(now, "messages_delivered", float(transport.delivered_messages))
        record(now, "messages_dropped", float(transport.dropped_messages))
        for kind, cost in by_kind.items():
            name = kind_names.get(kind)
            if name is None:
                name = kind_names[kind] = f"messages_{kind}"
            record(now, name, float(cost))
        if coordinator is not None:
            record(
                now, "migration_fallbacks", float(coordinator.silent_fallbacks)
            )

    def probe_deep(now: float) -> None:
        # Distribution stats + O(V) Python sums.  Recompute usage: the
        # lean probe's scratch may be stale if the registry reorders or
        # a deep-only closing sample runs (finish at an exact-division
        # horizon).
        np.subtract(busy_until, now, out=backlog)
        np.maximum(backlog, 0.0, out=backlog)
        np.divide(backlog, capacity, out=usage)
        np.minimum(usage, 1.0, out=usage)
        # One in-place sort serves p50/p90/max (lower-nearest rank);
        # np.percentile's interpolation machinery costs ~10x this on a
        # few-thousand-node column.
        usage.sort()
        record(now, "queue_usage_p50", float(usage[i50]))
        record(now, "queue_usage_p90", float(usage[i90]))
        record(now, "queue_usage_max", float(usage[n - 1]))
        usage_hist.accumulate(usage)
        # listcomps, not genexprs: sum() over a materialised list runs
        # measurably faster, and these three loops are the block's cost
        if helps:
            record(
                now, "help_retries", float(sum([h.retries for h in helps]))
            )
        if views:
            record(
                now,
                "view_evictions",
                float(sum([v.evictions for v in views])),
            )
        if adms:
            record(
                now,
                "negotiation_timeouts",
                float(sum([a.timeouts_fired for a in adms])),
            )

    registry.add_sampler(probe)
    registry.add_deep_sampler(probe_deep, stride=AGENT_STRIDE)


# Series files ---------------------------------------------------------------
#
# One run's trajectories (a :meth:`MetricsRegistry.to_payload` dict, as
# carried on ``RunResult.series``) as files: ``python -m repro.obs inspect
# --jsonl/--csv`` writes them, and :func:`load_series_jsonl` reads the JSONL
# form back without the store.


def save_series_jsonl(payload: Dict[str, object], path: Union[str, Path]) -> Path:
    """Write one run's trajectories as JSONL: a header line, then one
    key-sorted line per metric (``{"metric":..., "t":[...], "v":[...]}``)."""
    path = Path(path)
    series = payload.get("series", {}) if payload else {}
    with path.open("w") as fh:
        header = {
            "format": SERIES_FORMAT_TAG,
            "interval": payload.get("interval") if payload else None,
            "ticks": payload.get("ticks") if payload else None,
            "metrics": sorted(series),
        }
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for metric in sorted(series):
            track = series[metric]
            line = {"metric": metric, "t": list(track["t"]), "v": list(track["v"])}
            fh.write(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")
    return path


def load_series_jsonl(path: Union[str, Path]) -> Dict[str, object]:
    """Read :func:`save_series_jsonl` output back into a payload-shaped dict."""
    series: Dict[str, object] = {}
    header: Dict[str, object] = {}
    with Path(path).open() as fh:
        first = fh.readline()
        header = json.loads(first) if first.strip() else {}
        if header.get("format") != SERIES_FORMAT_TAG:
            raise ValueError(
                f"not a {SERIES_FORMAT_TAG} file: {header.get('format')!r}"
            )
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            series[rec["metric"]] = {"t": rec["t"], "v": rec["v"]}
    return {
        "format": REGISTRY_FORMAT,
        "interval": header.get("interval"),
        "ticks": header.get("ticks"),
        "series": series,
        "histograms": {},
    }


def save_series_csv(payload: Dict[str, object], path: Union[str, Path]) -> Path:
    """Write one run's trajectories as a flat ``metric,t,v`` CSV, rows
    metric-sorted then time-ordered."""
    path = Path(path)
    series = payload.get("series", {}) if payload else {}
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("metric", "t", "v"))
        for metric in sorted(series):
            track = series[metric]
            for t, v in zip(track["t"], track["v"]):
                writer.writerow((metric, repr(float(t)), repr(float(v))))
    return path
