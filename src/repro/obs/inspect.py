"""RunStore inspection: survivability reports with zero simulation.

The content-addressed :class:`~repro.experiments.store.RunStore` already
holds everything the paper's figures need — configs, results and
(for obs-enabled runs) the sampled trajectories on ``RunResult.series``.
This module turns a warm store into reports without running a single
event:

* :func:`load_runs` — every stored record as a typed :class:`RunEntry`;
* :func:`run_report` — one run's scalar summary, survivability
  trajectory charts and windowed degradation table;
* :func:`diff_report` — run-vs-run parameter and metric deltas;
* :func:`timeline_report` — per-metric density strips over simulated
  time, plus a trace-file timeline/span view for JSONL traces.

``python -m repro.obs`` (see :mod:`repro.obs.__main__`) is the CLI over
these functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.ascii_chart import DENSITY, render, render_timeline
from ..analysis.report import format_table
from ..experiments.store import RunStore, result_from_dict
from ..metrics.collector import RunResult
from ..sim.trace import TraceRecord

__all__ = [
    "RunEntry",
    "load_runs",
    "select_entry",
    "summarize",
    "run_report",
    "degradation_table",
    "diff_report",
    "timeline_report",
    "load_trace_jsonl",
    "trace_report",
]

#: trajectory names charted as the survivability view, in marker order
SURVIVABILITY_METRICS = ("nodes_live", "nodes_available", "nodes_busy")

#: cumulative task-flow trajectories charted together
TASK_FLOW_METRICS = ("tasks_generated", "tasks_admitted", "tasks_completed")


@dataclass(frozen=True)
class RunEntry:
    """One stored run: digest plus the record's two parts, typed."""

    digest: str
    config: Dict[str, object]
    result: RunResult

    @property
    def params(self) -> Dict[str, object]:
        return self.result.params

    @property
    def protocol(self) -> str:
        return str(self.params.get("protocol", "?"))

    @property
    def rate(self) -> float:
        return float(self.params.get("lambda", 0.0))

    @property
    def seed(self) -> int:
        return int(self.params.get("seed", 0))

    @property
    def series(self) -> Optional[Dict[str, object]]:
        return self.result.series

    def series_arrays(self) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """``{metric: (times, values)}`` as float arrays ({} when no series)."""
        payload = self.series
        if not payload:
            return {}
        out: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for name, track in payload.get("series", {}).items():
            out[name] = (
                np.asarray(track["t"], dtype=np.float64),
                np.asarray(track["v"], dtype=np.float64),
            )
        return out

    def label(self) -> str:
        return (
            f"{self.protocol} lambda={self.params.get('lambda')} "
            f"seed={self.seed} [{self.digest[:10]}]"
        )


def load_runs(store: Union[RunStore, str, Path]) -> List[RunEntry]:
    """Every stored run, sorted by (protocol, rate, seed, digest).

    Pure store read: opening the store parses the JSONL shards; nothing
    here touches the simulator.
    """
    if not isinstance(store, RunStore):
        store = RunStore(store)
    entries: List[RunEntry] = []
    for digest, record in store.records():
        result = result_from_dict(dict(record["result"]))  # type: ignore[arg-type]
        entries.append(
            RunEntry(
                digest=digest,
                config=dict(record.get("config") or {}),
                result=result,
            )
        )
    entries.sort(key=lambda e: (e.protocol, e.rate, e.seed, e.digest))
    return entries


def select_entry(entries: Sequence[RunEntry], token: str) -> RunEntry:
    """Resolve ``#<index>`` (as printed by :func:`summarize`) or a digest
    prefix to one entry; raises ``ValueError`` on no/ambiguous match."""
    if token.startswith("#"):
        try:
            index = int(token[1:])
        except ValueError:
            raise ValueError(f"bad run index: {token!r}") from None
        if not 0 <= index < len(entries):
            raise ValueError(f"run index out of range: {token} (of {len(entries)})")
        return entries[index]
    matches = [e for e in entries if e.digest.startswith(token)]
    if not matches:
        raise ValueError(f"no stored run matches digest prefix {token!r}")
    if len(matches) > 1:
        raise ValueError(
            f"digest prefix {token!r} is ambiguous ({len(matches)} matches)"
        )
    return matches[0]


def summarize(entries: Sequence[RunEntry]) -> str:
    """One line per stored run: index, digest, identity, headline metrics."""
    if not entries:
        return "(store is empty)"
    rows = []
    for i, e in enumerate(entries):
        r = e.result
        churn = (
            f"{e.params['churn_join_rate']}/{e.params['churn_leave_rate']}"
            if "churn_join_rate" in e.params
            else "-"
        )
        rows.append(
            [
                f"#{i}",
                e.digest[:10],
                e.protocol,
                e.params.get("lambda", "?"),
                e.seed,
                e.params.get("nodes", "?"),
                # pre-ranking-seam stores carry no "ranking" key; every
                # run they hold used the then-only headroom ordering
                e.params.get("ranking", "headroom"),
                e.params.get("fleet", "-"),
                churn,
                r.generated,
                r.admission_probability,
                r.completed,
                "yes" if e.series else "-",
            ]
        )
    return format_table(
        ["run", "digest", "protocol", "lambda", "seed", "nodes",
         "ranking", "fleet", "churn", "gen", "adm", "done", "series"],
        rows,
    )


# Per-run reporting ----------------------------------------------------------


def _window_delta(t: np.ndarray, v: np.ndarray, t0: float, t1: float) -> float:
    """Increase of a cumulative series across ``(t0, t1]`` (0 if no samples)."""
    before = v[t <= t0]
    upto = v[t <= t1]
    lo = float(before[-1]) if before.size else 0.0
    hi = float(upto[-1]) if upto.size else lo
    return hi - lo


def _window_gauge(
    t: np.ndarray, v: np.ndarray, t0: float, t1: float, mode: str
) -> float:
    """min/mean of a gauge series over ``(t0, t1]`` (carry last if empty)."""
    mask = (t > t0) & (t <= t1)
    if not mask.any():
        before = v[t <= t1]
        return float(before[-1]) if before.size else 0.0
    window = v[mask]
    return float(window.min() if mode == "min" else window.mean())


def degradation_table(entry: RunEntry, *, windows: int = 8) -> str:
    """The run's horizon split into windows: who was alive, what got done.

    Columns per window: minimum live nodes, mean available nodes, task
    generations/admissions/losses within the window, and the window's
    admission ratio — the trajectory form of the paper's survivability
    claim (service continuing while nodes die).
    """
    arrays = entry.series_arrays()
    if not arrays or "nodes_live" not in arrays:
        return "(no trajectory series recorded for this run)"
    horizon = float(entry.result.horizon) or 1.0
    edges = np.linspace(0.0, horizon, windows + 1)
    live_t, live_v = arrays["nodes_live"]
    avail = arrays.get("nodes_available")
    gen = arrays.get("tasks_generated")
    adm = arrays.get("tasks_admitted")
    lost = arrays.get("tasks_lost")
    rows = []
    for i in range(windows):
        t0, t1 = float(edges[i]), float(edges[i + 1])
        g = _window_delta(*gen, t0, t1) if gen else 0.0
        a = _window_delta(*adm, t0, t1) if adm else 0.0
        rows.append(
            [
                f"{t0:.4g}-{t1:.4g}",
                _window_gauge(live_t, live_v, t0, t1, "min"),
                _window_gauge(*avail, t0, t1, "mean") if avail else 0.0,
                g,
                a,
                _window_delta(*lost, t0, t1) if lost else 0.0,
                (a / g) if g else 1.0,
            ]
        )
    return format_table(
        ["window", "live(min)", "avail(mean)", "gen", "adm", "lost", "adm%"],
        rows,
    )


def _chart(
    arrays: Dict[str, Tuple[np.ndarray, np.ndarray]],
    names: Sequence[str],
    *,
    title: str,
    width: int,
) -> Optional[str]:
    """Chart the named trajectories that share the full tick grid."""
    present = [n for n in names if n in arrays]
    if not present:
        return None
    xs = arrays[present[0]][0]
    series = {
        n: arrays[n][1]
        for n in present
        if arrays[n][0].shape == xs.shape and np.array_equal(arrays[n][0], xs)
    }
    if not series:
        return None
    return render(
        xs.tolist(),
        {n: v.tolist() for n, v in series.items()},
        width=width,
        title=title,
        x_label="t",
    )


def run_report(
    entry: RunEntry,
    *,
    width: int = 64,
    charts: bool = True,
    windows: int = 8,
) -> str:
    """Everything about one stored run, rendered for a terminal."""
    r = entry.result
    lines = [f"run {entry.label()}"]
    lines.append(
        format_table(
            ["metric", "value"],
            [
                ["nodes", r.params.get("nodes", "?")],
                ["horizon", r.horizon],
                ["generated", r.generated],
                ["admitted", r.admitted],
                ["rejected", r.rejected],
                ["completed", r.completed],
                ["lost", r.lost],
                ["admission_prob", r.admission_probability],
                ["migration_rate", r.migration_rate],
                ["messages_total", r.messages_total],
                ["response_mean", r.response_time_mean],
            ],
        )
    )
    extra = r.extra or {}
    if "ranking" in r.params or extra.get("first_choice_attempts", 0.0):
        lines.append(
            "candidate ranking: "
            f"policy={r.params.get('ranking', 'headroom')} "
            f"misrank={extra.get('misrank_rate', 0.0):.3f} "
            f"fallback-depth={extra.get('fallback_depth_mean', 0.0):.2f} "
            f"({extra.get('first_choice_attempts', 0.0):.0f} first-choice "
            f"attempts)"
        )
    if "fleet" in r.params:
        lines.append(
            "fleet: "
            f"{r.params['fleet']} "
            f"capacity mean={extra.get('fleet_capacity_mean', 0.0):.1f} "
            f"cv={extra.get('fleet_capacity_cv', 0.0):.3f}, "
            f"speed mean={extra.get('fleet_speed_mean', 0.0):.2f} "
            f"cv={extra.get('fleet_speed_cv', 0.0):.3f}"
        )
    if extra.get("churn_scheduled", 0.0):
        lines.append(
            "churn: "
            f"{extra.get('churn_joins', 0.0):.0f} joins / "
            f"{extra.get('churn_leaves', 0.0):.0f} leaves applied, "
            f"{extra.get('churn_skipped', 0.0):.0f} skipped of "
            f"{extra.get('churn_scheduled', 0.0):.0f} scheduled; "
            f"{extra.get('nodes_final', 0.0):.0f} nodes at horizon"
        )
    arrays = entry.series_arrays()
    if not arrays:
        lines.append("(no trajectory series recorded — run with cfg.obs set)")
        return "\n".join(lines)
    if charts:
        surv = _chart(
            arrays, SURVIVABILITY_METRICS,
            title="survivability trajectory (nodes over time)", width=width,
        )
        if surv:
            lines.append(surv)
        flow = _chart(
            arrays, TASK_FLOW_METRICS,
            title="task flow (cumulative)", width=width,
        )
        if flow:
            lines.append(flow)
    lines.append("degradation by window:")
    lines.append(degradation_table(entry, windows=windows))
    return "\n".join(lines)


# Run-vs-run diffs -----------------------------------------------------------

_DIFF_SCALARS = (
    "generated", "admitted_local", "admitted_migrated", "rejected",
    "completed", "lost", "messages_total", "response_time_mean",
)


def diff_report(a: RunEntry, b: RunEntry) -> str:
    """Parameter and metric deltas between two stored runs (b - a)."""
    lines = [f"A: {a.label()}", f"B: {b.label()}"]
    param_keys = sorted(set(a.params) | set(b.params))
    param_rows = [
        [k, a.params.get(k, "-"), b.params.get(k, "-")]
        for k in param_keys
        if a.params.get(k) != b.params.get(k)
    ]
    if param_rows:
        lines.append("parameter differences:")
        lines.append(format_table(["param", "A", "B"], param_rows))
    else:
        lines.append("parameters: identical")
    rows = []
    for name in _DIFF_SCALARS:
        va, vb = float(getattr(a.result, name)), float(getattr(b.result, name))
        delta = vb - va
        pct = (delta / va * 100.0) if va else (0.0 if not delta else float("inf"))
        rows.append([name, va, vb, delta, pct])
    rows.append(
        [
            "admission_prob",
            a.result.admission_probability,
            b.result.admission_probability,
            b.result.admission_probability - a.result.admission_probability,
            0.0,
        ]
    )
    lines.append(format_table(["metric", "A", "B", "delta", "pct"], rows))
    sa, sb = a.series_arrays(), b.series_arrays()
    shared = sorted(set(sa) & set(sb))
    if shared:
        series_rows = []
        for name in shared:
            fa, fb = float(sa[name][1][-1]), float(sb[name][1][-1])
            if fa != fb:
                series_rows.append([name, fa, fb, fb - fa])
        if series_rows:
            lines.append("trajectory endpoints that differ:")
            lines.append(format_table(["series", "A", "B", "delta"], series_rows))
        else:
            lines.append("trajectory endpoints: identical")
    return "\n".join(lines)


# Timelines ------------------------------------------------------------------


def timeline_report(
    entry: RunEntry,
    *,
    metrics: Optional[Sequence[str]] = None,
    width: int = 64,
) -> str:
    """Per-metric density strips over simulated time.

    Each strip buckets the metric's samples into ``width`` time cells
    and shades each cell by its mean value relative to the metric's own
    range — a compact scan of which phase of the run a metric moved in.
    """
    arrays = entry.series_arrays()
    if not arrays:
        return "(no trajectory series recorded for this run)"
    names = list(metrics) if metrics else sorted(arrays)
    missing = [n for n in names if n not in arrays]
    if missing:
        raise ValueError(f"series not recorded: {missing}")
    horizon = float(entry.result.horizon) or 1.0
    label_width = max(len(n) for n in names)
    top = len(DENSITY) - 1
    lines = [f"metric timeline {entry.label()}"]
    for name in names:
        t, v = arrays[name]
        cells = np.zeros(width, dtype=np.float64)
        counts = np.zeros(width, dtype=np.int64)
        idx = np.minimum(
            (t / horizon * width).astype(np.int64), width - 1
        )
        np.add.at(cells, idx, v)
        np.add.at(counts, idx, 1)
        means = np.divide(cells, counts, out=np.zeros_like(cells), where=counts > 0)
        lo, hi = float(means.min()), float(means.max())
        span = (hi - lo) or 1.0
        strip = "".join(
            DENSITY[int(round((means[i] - lo) / span * top))] if counts[i] else " "
            for i in range(width)
        )
        lines.append(
            f"{name.rjust(label_width)} |{strip}| "
            f"last={float(v[-1]):.4g}"
        )
    axis = f"{0:.4g}".ljust(width // 2) + f"{horizon:.4g}".rjust(width - width // 2)
    lines.append(" " * label_width + " +" + "-" * width + "+")
    lines.append(" " * (label_width + 2) + axis + "  (t)")
    return "\n".join(lines)


def load_trace_jsonl(path: Union[str, Path]) -> List[TraceRecord]:
    """Parse a :class:`~repro.obs.sinks.JsonLinesSink` file back into
    records, skipping the format header and summary footer lines.

    A line that is not JSON raises ``ValueError`` naming ``path:line``.
    """
    records: List[TraceRecord] = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not a trace record ({exc})") from None
            if "c" not in obj:  # header/footer metadata line
                continue
            records.append(
                TraceRecord(float(obj["t"]), str(obj["c"]), dict(obj.get("p") or {}))
            )
    return records


def trace_report(path: Union[str, Path], *, width: int = 64) -> str:
    """Event-density timeline plus span counts for one JSONL trace file."""
    from .spans import build_help_spans, build_placement_spans

    records = load_trace_jsonl(path)
    if not records:
        return f"(no trace records in {path})"
    lines = [
        render_timeline(records, width=width, title=f"trace timeline: {path}")
    ]
    helps = build_help_spans(records)
    places = build_placement_spans(records)
    lines.append(
        f"{len(records)} records, {len(helps)} HELP span(s), "
        f"{len(places)} placement span(s)"
    )
    return "\n".join(lines)
