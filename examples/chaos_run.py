#!/usr/bin/env python
"""Chaos run: attacks on a lossy network, with the hardening knobs on.

The survivability scenarios attack *nodes*; this walk-through also
attacks *messages* — per-link loss, jitter, duplication — and shows the
protocol-hardening layer absorbing it:

1. sanity: a run with impairments constructed-but-disabled is
   byte-identical (trace and result) to one without the chaos path at
   all, and plans no impairment verdicts;
2. a loss-rate sweep (0-20%) under a seeded sweep attack, with HELP
   retry/backoff and silent-migration fallback enabled, printing the
   graceful-degradation table;
3. determinism: the same sweep through a process pool returns identical
   results.

The script asserts its own invariants as it goes, so CI runs it as the
chaos smoke test:

Run:  python examples/chaos_run.py
"""

from repro.experiments.chaos import degradation_table, loss_sweep
from repro.experiments.config import paper_config
from repro.experiments.runner import build_system
from repro.network.impairments import ImpairmentConfig
from repro.workload.attack import AttackConfig


def _attacked_run(cfg):
    """Build (the seeded attack armed), run, return (system, result)."""
    system = build_system(cfg)
    system.run()
    return system, system.result()


def main() -> None:
    base = paper_config("realtor", arrival_rate=8.0, horizon=250.0, seed=7)
    base = base.with_(
        trace=True,
        attack=AttackConfig(kind="sweep", start=40.0, dwell=25.0, victims=4),
    )

    print("=== 1. disabled impairments are byte-identical ===")
    plain_sys, plain_res = _attacked_run(base)
    off_sys, off_res = _attacked_run(base.with_(impairments=ImpairmentConfig()))
    assert off_sys.transport.impairments is None  # hook never installed
    assert "impairment_deliveries" not in off_res.extra
    assert off_sys.sim.trace.records == plain_sys.sim.trace.records
    assert off_res == plain_res
    print(
        f"identical: {len(plain_sys.sim.trace.records)} trace records, "
        f"P(admit)={plain_res.admission_probability:.3f}, zero impairment drops\n"
    )

    print("=== 2. loss-rate sweep with hardening enabled ===")
    hardened = base.with_(
        trace=False,
        protocol_config=base.protocol_config.with_(help_retry_budget=2),
        migration_retry_budget=2,
        impairments=ImpairmentConfig(jitter=0.005, duplicate_rate=0.01),
    )
    rates = (0.0, 0.02, 0.05, 0.10, 0.20)
    results = loss_sweep(hardened, rates)
    for rate, res in results.items():
        drops = res.extra.get("impairment_dropped", 0.0)
        recoveries = res.extra["help_retries"] + res.extra["migration_fallbacks"]
        if rate > 0.0:
            # a lossy network must show drops, and the hardening layer
            # must be seen fighting back
            assert drops > 0, f"no drops at loss={rate}"
            assert recoveries > 0, f"no retries/fallbacks at loss={rate}"
    worst = results[max(rates)]
    clean = results[0.0]
    # graceful degradation, not collapse: 20% per-link loss costs
    # admission probability, but the system keeps placing tasks
    assert worst.admission_probability <= clean.admission_probability + 0.05
    assert worst.admission_probability > 0.2
    print(degradation_table(results))
    print()

    print("=== 3. serial == parallel sweep ===")
    par = loss_sweep(hardened, rates, parallel=True, max_workers=2)
    assert par == results
    print(f"{len(rates)} loss rates identical across serial and process-pool runs")


if __name__ == "__main__":
    main()
