"""A4 — attack survivability: the paper's motivating scenario in numbers.

A sweep attacker compromises nodes one at a time; components evacuate
through the pro-active community state.  We regenerate the severity
table and compare REALTOR against the stalest baseline under the same
attack (common random numbers).
"""

from repro.experiments.ablations import run_study
from repro.experiments.config import paper_config
from repro.experiments.runner import build_system
from repro.workload.attack import SweepAttack

from conftest import BENCH_HORIZON

HORIZON = min(BENCH_HORIZON, 2_000.0)


def run_attacked(protocol: str, victims: int = 6, seed: int = 11):
    cfg = paper_config(protocol, 4.0, horizon=HORIZON, seed=seed)
    system = build_system(cfg)
    SweepAttack(
        system.topo.nodes(),
        start=HORIZON * 0.25,
        dwell=HORIZON * 0.05,
        victims=victims,
        rng=system.sim.streams.stream("attack"),
    ).plan().install(system.faults)
    system.run()
    return system.result()


def test_a4_severity_sweep(benchmark):
    result = benchmark.pedantic(
        run_study,
        args=("a4",),
        kwargs=dict(victims_list=(0, 2, 5, 10), arrival_rate=4.0,
                    horizon=HORIZON, dwell=HORIZON * 0.05),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.summary())

    clean = result.raw[0]
    worst = result.raw[10]
    assert clean.evacuations == 0 and clean.lost == 0
    assert worst.evacuations > 0
    # survivability: even the 10-victim sweep keeps most of the service
    assert worst.admission_probability > clean.admission_probability - 0.15
    benchmark.extra_info["admission_drop_10_victims"] = (
        clean.admission_probability - worst.admission_probability
    )


def test_a4_realtor_vs_stale_baseline(benchmark):
    realtor = benchmark.pedantic(
        run_attacked, args=("realtor",), rounds=1, iterations=1
    )
    stale = run_attacked("pull-100")

    for label, res in (("realtor", realtor), ("pull-100", stale)):
        total = res.evacuations
        ok = total - res.evacuation_failures
        print(f"{label}: evacuations={total} success={ok} lost={res.lost} "
              f"P(admit)={res.admission_probability:.4f}")

    # under identical attacks, fresher state must not lose more work
    assert realtor.lost <= stale.lost + 2
    benchmark.extra_info["lost_realtor"] = realtor.lost
    benchmark.extra_info["lost_pull100"] = stale.lost
