"""Ablation benchmarks A1, A2, A5 — the design knobs the paper leaves to
"the local resource manager".

Each test regenerates an ablation table and asserts its directional
claims; the timed section is the table's most expensive cell.
"""

from repro.experiments.ablations import run_study
from repro.experiments.config import paper_config
from repro.experiments.runner import run_experiment

from conftest import BENCH_HORIZON

HORIZON = min(BENCH_HORIZON, 2_000.0)


def test_a1_alpha_beta(benchmark):
    """A1: penalty/reward coefficients trade overhead for reactivity."""
    result = benchmark.pedantic(
        run_study,
        args=("a1",),
        kwargs=dict(arrival_rate=8.0, horizon=HORIZON),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.summary())

    # stronger back-off (larger alpha, smaller beta) => fewer messages,
    # without a material admission-probability cost
    gentle = result.raw[(0.5, 0.5)]
    aggressive = result.raw[(2.0, 0.1)]
    assert aggressive.messages_total < gentle.messages_total
    assert (
        aggressive.admission_probability
        > gentle.admission_probability - 0.02
    )
    benchmark.extra_info["message_reduction"] = (
        1 - aggressive.messages_total / gentle.messages_total
    )


def test_a2_threshold(benchmark):
    """A2: the 0.9 threshold balances early discovery vs pledge churn."""
    result = benchmark.pedantic(
        run_study,
        args=("a2",),
        kwargs=dict(arrival_rate=6.0, horizon=HORIZON),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.summary())

    # the threshold trades effectiveness for chatter: at 0.9 the protocol
    # reacts while queues still have headroom (more pledges, more
    # successful migrations); at 0.5 hardly anyone qualifies to pledge
    # under load, so discovery goes quiet and admission suffers
    low = result.raw[0.5]
    paper = result.raw[0.9]
    assert paper.admission_probability >= low.admission_probability
    assert paper.migration_rate > low.migration_rate
    assert paper.messages_total > low.messages_total
    # but the overall effectiveness band stays narrow (Fig 5's lesson)
    probs = [r.admission_probability for r in result.raw.values()]
    assert max(probs) - min(probs) < 0.05


def test_a5_retry_policy(benchmark):
    """A5: one-shot vs k-try vs random-target migration."""
    result = benchmark.pedantic(
        run_study,
        args=("a5",),
        kwargs=dict(arrival_rate=7.0, horizon=HORIZON),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.summary())

    one = result.raw["one-shot"]
    three = result.raw["3-try"]
    # retries can only help admission, at extra negotiation cost
    assert three.admission_probability >= one.admission_probability - 0.005
    assert (
        three.messages_for("ADMIT_REQ") >= one.messages_for("ADMIT_REQ")
    )
    benchmark.extra_info["admission_gain_3try"] = (
        three.admission_probability - one.admission_probability
    )


def test_a1_pinned_interval_under_overload(benchmark):
    """The mechanism behind Figs 6-8: HELP interval pinned at Upper_limit."""
    run = benchmark.pedantic(
        run_experiment,
        args=(paper_config("realtor", 10.0, horizon=HORIZON),),
        rounds=1,
        iterations=1,
    )
    assert run.help_interval_mean is not None
    # deep overload: the mean adaptive interval approaches Upper_limit=100
    assert run.help_interval_mean > 30.0
    benchmark.extra_info["mean_help_interval@lambda=10"] = run.help_interval_mean
