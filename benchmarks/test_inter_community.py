"""A6 — inter-community discovery (the paper's Section 7 future work).

Flat REALTOR vs the two-level hierarchy on a 100-node mesh at equal
offered load: the hierarchy must hold admission probability while
cutting the weighted message cost by a large factor.
"""

from repro.experiments.ablations import run_study

from conftest import BENCH_HORIZON

HORIZON = min(BENCH_HORIZON, 1_000.0)


def test_a6_inter_community(benchmark):
    result = benchmark.pedantic(
        run_study,
        args=("a6",),
        kwargs=dict(rows=10, cols=10, load=1.2, horizon=HORIZON),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.summary())

    flat = result.raw["realtor"]
    hier = result.raw["realtor-hier"]
    # >=2x message reduction at <=0.02 admission cost
    assert hier.messages_total < flat.messages_total * 0.5
    assert hier.admission_probability > flat.admission_probability - 0.02

    benchmark.extra_info["message_reduction_factor"] = (
        flat.messages_total / hier.messages_total
    )
    benchmark.extra_info["admission_cost"] = (
        flat.admission_probability - hier.admission_probability
    )
