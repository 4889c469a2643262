#!/usr/bin/env python
"""Quickstart: run REALTOR on the paper's 5x5 mesh and read the results.

This is the smallest complete use of the public API:

1. build a configuration (the paper's Section 5 defaults),
2. run one simulation,
3. inspect admission probability, migration rate and message overhead.

Run:  python examples/quickstart.py
"""

from repro import paper_config, run_experiment
from repro.analysis.report import describe_result


def main() -> None:
    # lambda = 6 tasks/s on 25 nodes with mean size 5 s => offered load 1.2:
    # the system is overloaded and must migrate tasks to survive.
    cfg = paper_config("realtor", arrival_rate=6.0, horizon=2_000.0, seed=7)
    print(f"offered load: {cfg.offered_load:.2f}")

    result = run_experiment(cfg)
    print(describe_result(result, label="REALTOR @ lambda=6"))

    # Compare against running with no discovery at all: a random migration
    # target instead of the community's best candidate.
    blind = run_experiment(cfg.with_(policy="random"))
    print()
    print(describe_result(blind, label="random-target control"))

    gain = result.admission_probability - blind.admission_probability
    print(f"\ndiscovery buys {gain:+.4f} admission probability over random targets")
    print(
        "(differences between well-tuned strategies are small on this workload —\n"
        " the paper's Figure 5 makes the same observation; the protocols separate\n"
        " on *overhead*, see examples/protocol_comparison.py)"
    )


if __name__ == "__main__":
    main()
