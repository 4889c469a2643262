"""``python -m repro.live`` — run the live runtime from the shell.

Generates a Poisson task load against a live overlay for ``--duration``
virtual seconds, prints a JSON report (admission probability, wall
throughput, settlement-latency percentiles, message counters, scheduler
counters and shutdown status) and optionally enforces smoke-test floors so CI
can gate on it::

    python -m repro.live --nodes 25 --rate 200 --duration 10 \\
        --time-scale 1 --backend inproc \\
        --min-throughput 1000 --require-clean --output live-report.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys

from ..experiments.config import TOPOLOGIES
from ..obs.config import ObsConfig
from .runtime import LiveConfig, run_live
from .transport import BACKENDS


def _parse_args(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        prog="python -m repro.live",
        description="Run the REALTOR protocols on the live asyncio runtime.",
    )
    p.add_argument("--nodes", type=int, default=25, help="overlay size (default 25)")
    p.add_argument("--topology", default="mesh", choices=TOPOLOGIES)
    p.add_argument("--protocol", default="realtor", help="registry name (default realtor)")
    p.add_argument(
        "--rate", type=float, default=6.0, help="arrivals per virtual second"
    )
    p.add_argument(
        "--duration", type=float, default=30.0, help="virtual seconds of load"
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="virtual seconds per wall second (1 = real time)",
    )
    p.add_argument("--backend", default="inproc", choices=BACKENDS)
    p.add_argument(
        "--latency",
        type=float,
        default=None,
        help="per-message latency in virtual seconds (default: LAN 0.0002)",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="extra virtual seconds for in-flight tasks to settle",
    )
    p.add_argument(
        "--progress",
        type=float,
        default=None,
        metavar="SECONDS",
        help="print a progress line every N virtual seconds (stderr)",
    )
    p.add_argument(
        "--output", default=None, metavar="PATH", help="write the JSON report here"
    )
    p.add_argument(
        "--no-series",
        action="store_true",
        help="omit the sampled time series from the report (smaller output)",
    )
    # Smoke-test gates (CI): any unmet gate exits nonzero.
    p.add_argument(
        "--min-throughput",
        type=float,
        default=None,
        help="fail unless tasks per wall second reaches this",
    )
    p.add_argument(
        "--max-p99-ms",
        type=float,
        default=None,
        help="fail unless p99 settlement latency is below this (wall ms)",
    )
    p.add_argument(
        "--max-cpu-util", type=float, default=None, help="fail above this CPU share"
    )
    p.add_argument(
        "--require-clean",
        action="store_true",
        help="fail unless every task settled and every node endpoint closed",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    cfg = LiveConfig(
        nodes=args.nodes,
        topology=args.topology,
        protocol=args.protocol,
        arrival_rate=args.rate,
        horizon=args.duration,
        seed=args.seed,
        time_scale=args.time_scale,
        backend=args.backend,
        latency=args.latency,
        drain_timeout=args.drain_timeout,
        progress_interval=args.progress,
        obs=ObsConfig(record_series=not args.no_series),
    )
    report = asyncio.run(run_live(cfg))
    payload = json.dumps(report, indent=2, sort_keys=True, default=str)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(payload)

    failures = []
    throughput = report["throughput"]["tasks_per_wall_second"]
    p99 = report["latency_ms"]["p99"]
    if args.min_throughput is not None and throughput < args.min_throughput:
        failures.append(
            f"throughput {throughput:.1f} tasks/s below floor {args.min_throughput:.1f}"
        )
    if args.max_p99_ms is not None and (
        math.isnan(p99) or p99 > args.max_p99_ms
    ):
        failures.append(f"p99 latency {p99:.2f} ms above ceiling {args.max_p99_ms:.2f}")
    cpu_util = report["throughput"]["cpu_util"]
    if args.max_cpu_util is not None and cpu_util > args.max_cpu_util:
        failures.append(f"cpu_util {cpu_util:.2f} above ceiling {args.max_cpu_util:.2f}")
    if args.require_clean and not report["clean_shutdown"]:
        failures.append("shutdown was not clean (unsettled tasks or open node endpoints)")
    for failure in failures:
        print(f"[live] GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
