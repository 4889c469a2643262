#!/usr/bin/env python
"""Churn + heterogeneous fleet + ranking-policy walk-through.

The scenario-axis smoke (see docs/scenarios.md).  Four parts, each
asserting its own invariants so CI can run it as a gate:

1. **baseline identity** — the default path (headroom ranking, uniform
   fleet, no churn) still produces the exact pre-seam trace hash, and
   explicitly asking for the defaults is byte-identical to not asking;
2. **churn end-to-end** — a heterogeneous fleet under Poisson join/leave
   churn: joiners are discovered *through the protocol* (their ids show
   up in other nodes' views, which are fed only by messages), leaves
   drain through the graceful evacuation path, and the churn accounting
   balances;
3. **determinism** — the same churn scenario run twice is identical;
4. **ranking ablation** — the four policies compared on one grid.

Run:  python examples/churn_fleet_run.py [report.json]
"""

import dataclasses
import hashlib
import json
import sys

from repro.experiments.ablations import run_study
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, run_experiment
from repro.protocols.base import ProtocolConfig
from repro.workload.churn import ChurnConfig
from repro.workload.fleet import FleetConfig

#: sha256 over the event trace of the scenario below, measured before
#: the ranking seam / fleet / churn axes existed.  The refactor must
#: never move it.
PRE_SEAM_HASH = "fbc36e92329cb4d51229a4880af404cd9656795eeeb49889eda310904ffcbaa1"

PINNED = ExperimentConfig(
    protocol="realtor", arrival_rate=12.0, horizon=90.0,
    seed=20260808, trace=True,
)

CHURN = ExperimentConfig(
    protocol="realtor",
    arrival_rate=10.0,
    horizon=300.0,
    seed=42,
    trace=True,
    fleet=FleetConfig.heterogeneous(),
    churn=ChurnConfig(join_rate=0.03, leave_rate=0.02),
)


def trace_hash(cfg: ExperimentConfig) -> str:
    system = build_system(cfg)
    system.run()
    h = hashlib.sha256()
    for rec in system.sim.trace.records:
        h.update(
            repr((rec.time, rec.category, tuple(sorted(rec.payload.items()))))
            .encode()
        )
    return h.hexdigest()


def check_baseline_identity() -> dict:
    print("=== 1. default path is byte-identical to the pre-seam code ===")
    pinned = trace_hash(PINNED)
    assert pinned == PRE_SEAM_HASH, (
        f"default-path trace moved: {pinned} != {PRE_SEAM_HASH}"
    )
    explicit = PINNED.with_(
        protocol_config=ProtocolConfig(ranking_policy="headroom"),
        fleet=FleetConfig(),   # all-default axes: uniform fleet
        churn=ChurnConfig(),   # zero rates: inactive
    )
    assert trace_hash(explicit) == pinned, "explicit defaults diverged"
    print(f"pinned hash holds: {pinned[:16]}…  (explicit defaults identical)")
    return {"pre_seam_hash": pinned}


def check_churn_run() -> dict:
    print("\n=== 2. heterogeneous fleet under join/leave churn ===")
    system = build_system(CHURN)
    initial = set(system.agents)
    system.run()
    result = system.result()
    extra = result.extra

    assert system.churn_joins > 0, "scenario produced no joins; raise join_rate"
    assert system.churn_leaves > 0, "scenario produced no leaves; raise leave_rate"
    assert (
        extra["churn_joins"] + extra["churn_leaves"] + extra["churn_skipped"]
        == extra["churn_scheduled"]
    ), "churn accounting does not balance"

    # Joiners must be *discovered*: views are fed exclusively by protocol
    # messages, so a joiner id in another node's view proves the overlay
    # found it with no back channel.
    joiners = sorted(set(system.agents) - initial)
    seen_by = {
        j: sum(
            1
            for nid, agent in system.agents.items()
            if nid != j and j in agent.view
        )
        for j in joiners
    }
    discovered = {j: n for j, n in seen_by.items() if n > 0}
    assert discovered, f"no joiner was discovered via the protocol: {seen_by}"

    # Graceful leaves drain through evacuation: every departed node ends
    # down, some of its work moved to a live host, and every admission
    # decision still settled (no task simply vanished with its host).
    up = set(system.faults.up_nodes())
    left = [rec.payload["node"] for rec in system.sim.trace.records
            if rec.category == "leave"]
    assert len(left) == system.churn_leaves
    assert not (set(left) & up), "a departed node is still up"
    assert result.evacuations > result.evacuation_failures, (
        f"no graceful leave moved work: {result.evacuation_failures} of "
        f"{result.evacuations} evacuations failed"
    )
    assert result.generated == result.admitted + result.rejected, (
        "some task never reached an admission decision"
    )

    assert extra["fleet_speed_cv"] > 0.0, "fleet did not materialise"
    print(
        f"{extra['churn_joins']:.0f} joins ({len(discovered)} discovered via "
        f"protocol), {extra['churn_leaves']:.0f} leaves drained "
        f"({result.evacuations} evacuations, "
        f"{result.evacuation_failures} failed), "
        f"{extra['churn_skipped']:.0f} skipped; "
        f"{extra['nodes_final']:.0f} nodes at horizon; "
        f"fleet speed cv {extra['fleet_speed_cv']:.3f}"
    )
    return {
        "joins": extra["churn_joins"],
        "leaves": extra["churn_leaves"],
        "skipped": extra["churn_skipped"],
        "joiners_discovered": len(discovered),
        "nodes_final": extra["nodes_final"],
        "admission_probability": result.admission_probability,
    }


def check_determinism() -> dict:
    print("\n=== 3. churn scenario is deterministic ===")
    a = dataclasses.asdict(run_experiment(CHURN))
    b = dataclasses.asdict(run_experiment(CHURN))
    assert a == b, "identical configs produced different results"
    print("two runs byte-identical")
    return {"deterministic": True}


def check_ranking_ablation() -> dict:
    print("\n=== 4. ranking-policy ablation ===")
    study = run_study(
        "b4",
        policies=("headroom", "latency", "reliability", "composite"),
        arrival_rate=9.0,
        horizon=600.0,
        churn_rate=0.02,
    )
    print(study.table)
    return {
        policy: {
            "admission": res.admission_probability,
            "misrank": res.extra.get("misrank_rate", 0.0),
        }
        for policy, res in study.raw.items()
    }


def main() -> None:
    report = {
        "baseline": check_baseline_identity(),
        "churn": check_churn_run(),
        "determinism": check_determinism(),
        "ranking": check_ranking_ablation(),
    }
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"\nreport written to {sys.argv[1]}")
    print("\nall churn/fleet/ranking invariants hold")


if __name__ == "__main__":
    main()
