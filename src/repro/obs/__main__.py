"""``python -m repro.obs`` — the RunStore inspector CLI.

Renders survivability trajectories, degradation tables, run diffs and
metric/trace timelines from a warm
:class:`~repro.experiments.store.RunStore` — zero simulation; every
byte comes from the store shards (or a JSONL trace file).

Subcommands::

    inspect  --store DIR [--run TOKEN] [--no-chart] [--jsonl F] [--csv F]
    diff     --store DIR A B
    timeline --store DIR --run TOKEN [--metrics a,b] | --trace FILE

Run tokens are ``#<index>`` rows from the summary listing or unambiguous
digest prefixes.  ``--report PATH`` mirrors any subcommand's output to a
file (the CI artifact hook).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .registry import save_series_csv, save_series_jsonl
from .inspect import (
    diff_report,
    load_runs,
    run_report,
    select_entry,
    summarize,
    timeline_report,
    trace_report,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect stored runs: trajectories, diffs, timelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser(
        "inspect", help="summarise a store, or report one run in full"
    )
    p_inspect.add_argument("--store", required=True, help="RunStore directory")
    p_inspect.add_argument(
        "--run", help="run to report: #index or digest prefix (default: summary)"
    )
    p_inspect.add_argument("--no-chart", action="store_true")
    p_inspect.add_argument("--width", type=int, default=64)
    p_inspect.add_argument("--windows", type=int, default=8)
    p_inspect.add_argument(
        "--jsonl", help="export the selected run's trajectories as JSONL"
    )
    p_inspect.add_argument(
        "--csv", help="export the selected run's trajectories as CSV"
    )
    p_inspect.add_argument("--report", help="also write the output to this file")

    p_diff = sub.add_parser("diff", help="compare two stored runs")
    p_diff.add_argument("--store", required=True)
    p_diff.add_argument("a", help="first run: #index or digest prefix")
    p_diff.add_argument("b", help="second run: #index or digest prefix")
    p_diff.add_argument("--report")

    p_tl = sub.add_parser(
        "timeline", help="metric density strips, or a JSONL trace timeline"
    )
    p_tl.add_argument("--store")
    p_tl.add_argument("--run")
    p_tl.add_argument(
        "--metrics", help="comma-separated series names (default: all)"
    )
    p_tl.add_argument("--trace", help="JSONL trace file instead of a store run")
    p_tl.add_argument("--width", type=int, default=64)
    p_tl.add_argument("--report")
    return parser


def _emit(text: str, report: Optional[str]) -> None:
    print(text)
    if report:
        with open(report, "w") as fh:
            fh.write(text + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "inspect":
            entries = load_runs(args.store)
            if args.run is None:
                text = summarize(entries)
                if any(e.series for e in entries):
                    text += (
                        "\n(pick a run with --run '#<n>' or a digest prefix "
                        "for trajectories)"
                    )
                _emit(text, args.report)
                return 0
            entry = select_entry(entries, args.run)
            text = run_report(
                entry,
                width=args.width,
                charts=not args.no_chart,
                windows=args.windows,
            )
            if args.jsonl or args.csv:
                if not entry.series:
                    raise ValueError(
                        "selected run recorded no series; nothing to export"
                    )
                if args.jsonl:
                    save_series_jsonl(entry.series, args.jsonl)
                    text += f"\nwrote {args.jsonl}"
                if args.csv:
                    save_series_csv(entry.series, args.csv)
                    text += f"\nwrote {args.csv}"
            _emit(text, args.report)
            return 0
        if args.command == "diff":
            entries = load_runs(args.store)
            a = select_entry(entries, args.a)
            b = select_entry(entries, args.b)
            _emit(diff_report(a, b), args.report)
            return 0
        if args.command == "timeline":
            if args.trace:
                _emit(trace_report(args.trace, width=args.width), args.report)
                return 0
            if not args.store or not args.run:
                raise ValueError("timeline needs --trace, or --store with --run")
            entries = load_runs(args.store)
            entry = select_entry(entries, args.run)
            metrics = (
                [m.strip() for m in args.metrics.split(",") if m.strip()]
                if args.metrics
                else None
            )
            _emit(
                timeline_report(entry, metrics=metrics, width=args.width),
                args.report,
            )
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2  # unreachable with required subparsers


if __name__ == "__main__":
    raise SystemExit(main())
