"""Figures 5-9 — every row of ``repro.experiments.figures.FIGURES``.

Regenerates the paper's curves (tables printed below) and asserts the
one thing this suite has to say about them: every gated claim of the row
holds at benchmark scale.  The claims, their bands and the paper's
numbers live in the table; nothing is restated here.

The timed section is one representative cell per figure (REALTOR at the
knee, Push-1's flood schedule, REALTOR at its cost and migration peaks,
one testbed run), so ``--benchmark-only`` also reports the simulator's
end-to-end throughput for each workload.
"""

import pytest

from repro.experiments.config import paper_config
from repro.experiments import figures as fg
from repro.experiments.runner import run_experiment

from conftest import BENCH_HORIZON, BENCH_SEED

#: figure -> the (protocol, lambda) cell its timed section runs
TIMED_CELL = {
    "fig5": ("realtor", 5.0),
    "fig6": ("push-1", 5.0),
    "fig7": ("realtor", 6.0),
    "fig8": ("realtor", 8.0),
}


@pytest.mark.parametrize("key", fg.FIGURES)
def test_figure_claims_hold(key, benchmark, request):
    row = fg.FIGURES[key]
    if row.cells is fg.paper_sweep:
        # projections of the one session-wide sweep
        result = fg.run_figure(key, raw=request.getfixturevalue("paper_sweep"))
        protocol, rate = TIMED_CELL[key]
        cell = paper_config(protocol, rate, horizon=min(BENCH_HORIZON, 500.0))
        run = benchmark.pedantic(run_experiment, args=(cell,), rounds=3, iterations=1)
    else:
        horizon = min(BENCH_HORIZON, 2_000.0)
        result = fg.run_figure(key, horizon=horizon, seed=BENCH_SEED)
        cell = fg.TESTBED.with_(arrival_rate=4.0, horizon=min(horizon, 500.0))
        run = benchmark.pedantic(run_experiment, args=(cell,), rounds=3, iterations=1)
    benchmark.extra_info["timed_cell"] = {
        "admission_probability": run.admission_probability,
        "messages_per_admitted": run.messages_per_admitted,
        "migration_rate": run.migration_rate,
    }
    for name, series in result.series.items():
        benchmark.extra_info[f"{row.metric}[{name}]@lambda={result.xs[-1]:g}"] = series[-1]

    print()
    print(result.summary())
    assert not result.not_evaluated, result.not_evaluated
    failed = [c for c in result.checks if not c.passed]
    assert not failed, "gated claims failed:\n" + "\n".join(map(str, failed))
