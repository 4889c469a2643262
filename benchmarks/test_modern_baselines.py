"""B1 — the no-migration floor and SWIM-style gossip vs REALTOR.

Regenerates the beyond-paper comparison table and asserts its
directional findings: migration is worth real admission probability;
gossip at a relaxed period is cost-competitive with REALTOR.
"""

from repro.experiments.ablations import run_study

from conftest import BENCH_HORIZON

HORIZON = min(BENCH_HORIZON, 1_000.0)


def test_b1_modern_baselines(benchmark):
    result = benchmark.pedantic(
        run_study,
        args=("b1",),
        kwargs=dict(rates=(6.0, 7.0, 8.0), horizon=HORIZON),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.summary())

    for rate in (6.0, 7.0, 8.0):
        floor = result.raw[("none", rate)]
        realtor = result.raw[("realtor", rate)]
        gossip5 = result.raw[("gossip-5", rate)]

        # migration (any protocol) clears the no-discovery floor
        assert realtor.admission_probability > floor.admission_probability
        assert floor.messages_total == 0.0

        # relaxed-period gossip is close on admission at a fraction of cost
        assert (
            gossip5.admission_probability
            > realtor.admission_probability - 0.02
        )
        assert gossip5.messages_total < realtor.messages_total

    gain = (
        result.raw[("realtor", 7.0)].admission_probability
        - result.raw[("none", 7.0)].admission_probability
    )
    benchmark.extra_info["migration_value_at_lambda7"] = gain
    benchmark.extra_info["gossip5_cost_ratio"] = (
        result.raw[("gossip-5", 7.0)].messages_total
        / result.raw[("realtor", 7.0)].messages_total
    )
