#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``: ``agree.py old.json new.json``.

One row per workload and end-to-end metric, with each side's median and
quartiles and the metric's bound.  Verdicts:

``regressed``   the new median is worse than the old by more than the bound
``improved``    every new run reads better than every old run
``unresolved``  the run-to-run spread (interquartile range over median, of
                either side) exceeds the bound, so the runs cannot tell —
                never reported as ``unchanged``
``unchanged``   none of the above

Exit status 0 only when every ``BENCHMARK.json`` row is ``unchanged`` or
``improved``, every run passed its output checks, and the
simulated-statistics fingerprints of equal (workload, seed) pairs are
identical.  Two sets of runs of one commit must therefore exit 0; between
two commits a fingerprint mismatch says the change is not a pure
speed-up.  The live-only latency rows are *advisory*: printed with their
verdict, outside the exit status (bench/README.md says why).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: end-to-end metrics that exist on the live workloads only.  The driver
#: contract wants every BENCHMARK.json end-to-end metric on every
#: workload, so these travel in the untraced run's detail: (better, bound)
LIVE_ONLY = {
    "live.settle_migrated_p50_ms": ("lower", 0.15),
    "live.settle_p99_ms": ("lower", 0.20),
    "live.cpu_util": ("lower", 0.05),
}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid if mid else float("inf")


def collect(path: str) -> Tuple[Dict[Tuple[str, str], List[float]], dict, List[str]]:
    """Untraced values by (workload, metric), fingerprints, failed runs."""
    with open(path) as fh:
        data = json.load(fh)
    values: Dict[Tuple[str, str], List[float]] = {}
    fingerprints = {}
    bad = []
    for run in data["runs"]:
        if not run["correct"]:
            bad.append(f"{path}: {run['workload']} seed {run['seed']} failed its checks")
        if run["fingerprint"]:
            fingerprints[(run["workload"], run["seed"])] = run["fingerprint"]
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
        for name in LIVE_ONLY:
            if name in run["layer"]:
                values.setdefault((run["workload"], name), []).append(run["layer"][name])
    return values, fingerprints, bad


def verdict(old: List[float], new: List[float], better: str, bound: float,
            gate_spread: bool) -> str:
    sign = 1.0 if better == "lower" else -1.0
    old_mid, new_mid = statistics.median(old), statistics.median(new)
    if sign * (new_mid - old_mid) / old_mid > bound:
        return "regressed"
    all_better = max(sign * v for v in new) < min(sign * v for v in old)
    if all_better:
        return "improved"
    if gate_spread and max(spread(old), spread(new)) > bound:
        return "unresolved"
    return "unchanged"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    gates = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    gates.update(LIVE_ONLY)
    old, old_prints, old_bad = collect(argv[0])
    new, new_prints, new_bad = collect(argv[1])
    problems = old_bad + new_bad

    print(f"{'workload':<12} {'metric':<28} {'old median [q1 .. q3]':<36} "
          f"{'new median [q1 .. q3]':<36} {'change':>8} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        for name, (better, bound) in gates.items():
            key = (w["name"], name)
            if key not in old or key not in new:
                continue
            cells = []
            for vals in (old[key], new[key]):
                q1, mid, q3 = quartiles(vals)
                cells.append(f"{mid:.5g} [{q1:.5g} .. {q3:.5g}]")
            change = statistics.median(new[key]) / statistics.median(old[key]) - 1.0
            # set-up times of a few ms are noisy run to run; like the
            # driver, gate their medians but not their spread
            v = verdict(old[key], new[key], better, bound, name != "setup_s")
            if name in LIVE_ONLY:
                v += " (advisory)"
            elif v in ("regressed", "unresolved"):
                problems.append(f"{w['name']} {name}: {v}")
            print(f"{w['name']:<12} {name:<28} {cells[0]:<36} {cells[1]:<36} "
                  f"{change:>+8.1%} {bound:>6.0%}  {v}")

    for key in sorted(set(old_prints) & set(new_prints)):
        if old_prints[key] != new_prints[key]:
            problems.append(f"{key[0]} seed {key[1]}: simulated statistics differ "
                            "(not a pure speed-up)")
    for problem in problems:
        print(f"DISAGREE: {problem}")
    if not problems:
        print("the two sets agree within every bound; fingerprints identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
