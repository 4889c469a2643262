#!/usr/bin/env python
"""Run-store smoke: cache-hit resume, bit-identical results, incremental runs.

Doubles as the CI gate for the content-addressed run store
(docs/experiments.md):

1. run a tiny sweep into a fresh store — every cell is a miss,
2. run the *same* sweep again — 100% cache hits, zero simulations, and
   the canonical JSON line of every result is identical between passes,
3. widen the sweep by one arrival rate — only the new cells simulate,
4. reopen the store in a new ``RunStore`` (as a restarted process would)
   and render a figure-style series straight from cached records.

Run:  python examples/store_resume.py [store-dir]

Every step asserts; a non-zero exit means the store broke.
"""

import json
import sys
import tempfile
from pathlib import Path

from repro.experiments import ExperimentConfig, RunStore, run_sweep
from repro.experiments.store import result_to_canonical_json

PROTOCOLS = ["realtor", "push-1"]
RATES = [2.0, 6.0]
BASE = ExperimentConfig(horizon=300.0, seed=7)


def main(root: Path) -> None:
    # Pass 1: cold store, every cell simulates and persists.
    store = RunStore(root)
    first = run_sweep(PROTOCOLS, RATES, BASE, store=store)
    stats = store.stats()
    print(f"pass 1 (cold):   {stats['misses']} misses, {stats['writes']} written")
    assert stats["hits"] == 0
    assert stats["writes"] == len(PROTOCOLS) * len(RATES)

    # Pass 2: identical sweep, reopened store -> 100% cache hits and
    # byte-identical results.
    store2 = RunStore(root)
    second = run_sweep(PROTOCOLS, RATES, BASE, store=store2)
    stats2 = store2.stats()
    print(f"pass 2 (resume): {stats2['hits']} hits, {stats2['misses']} misses")
    assert stats2["misses"] == 0 and stats2["writes"] == 0
    assert stats2["hits"] == len(PROTOCOLS) * len(RATES)

    def lines(sweep):
        return [
            result_to_canonical_json(sweep[proto][rate])
            for proto in PROTOCOLS
            for rate in RATES
        ]

    assert lines(first) == lines(second), "store round-trip not byte-identical"
    print("pass 2 results byte-identical to pass 1")

    # Pass 3: widen the grid -> incremental re-execution, cached cells
    # are served, only the new rate simulates.
    store3 = RunStore(root)
    wider = run_sweep(PROTOCOLS, RATES + [9.0], BASE, store=store3)
    stats3 = store3.stats()
    print(
        f"pass 3 (widened grid): {stats3['hits']} hits, "
        f"{stats3['writes']} new cells simulated"
    )
    assert stats3["hits"] == len(PROTOCOLS) * len(RATES)
    assert stats3["writes"] == len(PROTOCOLS)  # one new rate per protocol

    # Pass 4: a figure-style projection rendered with zero simulation.
    store4 = RunStore(root)
    cached = run_sweep(PROTOCOLS, RATES + [9.0], BASE, store=store4)
    assert store4.stats()["misses"] == 0
    series = {
        proto: [cached[proto][rate].admission_probability
                for rate in RATES + [9.0]]
        for proto in PROTOCOLS
    }
    assert wider["realtor"][9.0].admission_probability == series["realtor"][-1]
    print("figure series from cache:", json.dumps(series, sort_keys=True))

    entries = store4.stats()["entries"]
    shards = len(list((root / "shards").glob("*.jsonl")))
    print(f"store at {root}: {entries} entries across {shards} shard(s)")
    print("store smoke OK")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory(prefix="store-smoke-") as tmp:
            main(Path(tmp))
