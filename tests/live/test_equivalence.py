"""Live-vs-sim equivalence (the seam's end-to-end contract).

Same seed, same workload: the live runtime derives its named random
substreams exactly like the simulator, so a live run and a simulated run
with equal seeds draw the *identical* arrival/size/origin sequence.  The
assertions exploit that split:

* the workload side is deterministic — generated counts must match the
  simulator **exactly** (the open-loop arrival generator guarantees the
  count survives wall-clock lateness);
* the admission side is timing-sensitive — real concurrency can reorder
  a handful of near-simultaneous admission decisions — so admission
  probabilities match within a tolerance, not bit-for-bit.

Nothing here asserts on wall-clock durations, but the admission side
does depend on the runtime keeping up with its open loop: driven past
its capacity it falls behind, virtual time drains the queues while it
catches up, and it admits more than the simulator does.  Each point's
``time_scale`` therefore keeps the wall arrival rate inside the capacity
``docs/live.md`` measured (knee at 4 000-8 000 tasks/s wall), which
still leaves each live run under a second of wall time.
"""

import asyncio

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.live import LiveConfig, run_live

#: admission-probability gap allowed between the runtimes.  Inside the
#: runtime's capacity the measured gap is <= 0.004 even in deep overload
#: (five runs at 4 000 tasks/s wall: 0.6597-0.6647 against the
#: simulator's 0.6637); 0.1 absorbs scheduler jitter on a loaded CI
#: machine without ever passing a broken runtime.  Past capacity the gap
#: reaches 0.02-0.15 — that is the runtime lagging, not disagreeing.
TOLERANCE = 0.1

SEED = 42

#: (arrival rate, horizon) -> time_scale: one underloaded point
#: (admission ~1.0) and one deep-overload point (admission well below
#: 1), so the curves are compared where they are flat *and* where they
#: are steep.  800 and 4 000 tasks/s wall, 0.15 s and 0.25 s of it.
POINTS = {(4.0, 30.0): 200.0, (100.0, 10.0): 40.0}


def live_run(rate: float, horizon: float) -> dict:
    cfg = LiveConfig(
        nodes=25,
        arrival_rate=rate,
        horizon=horizon,
        seed=SEED,
        time_scale=POINTS[rate, horizon],
        latency=0.0,
        drain_timeout=60.0,
    )
    return asyncio.run(run_live(cfg))


def sim_run(rate: float, horizon: float):
    return run_experiment(
        ExperimentConfig(
            protocol="realtor",
            nodes=25,
            arrival_rate=rate,
            horizon=horizon,
            seed=SEED,
        )
    )


@pytest.fixture(scope="module")
def curves():
    """Both runtimes over both load points (module-scoped: ~4 runs)."""
    return {
        (rate, horizon): (sim_run(rate, horizon), live_run(rate, horizon))
        for rate, horizon in POINTS
    }


class TestEquivalence:
    def test_same_seed_generates_identical_workload(self, curves):
        for (rate, horizon), (sim, live) in curves.items():
            assert live["tasks"]["generated"] == sim.generated, (
                f"rate={rate}: live generated {live['tasks']['generated']}, "
                f"sim generated {sim.generated}"
            )

    def test_admission_probability_within_tolerance(self, curves):
        for (rate, horizon), (sim, live) in curves.items():
            gap = abs(live["admission_probability"] - sim.admission_probability)
            assert gap <= TOLERANCE, (
                f"rate={rate}: live adm={live['admission_probability']:.4f} "
                f"sim adm={sim.admission_probability:.4f} gap={gap:.4f}"
            )

    def test_curve_shape_preserved(self, curves):
        # underload admits (nearly) everything; overload admits far less
        # — the live curve must bend the same way the sim curve does, and
        # by at least half of what the simulator's own curve drops
        (under_sim, under_live), (over_sim, over_live) = curves.values()
        assert under_live["admission_probability"] > 0.9
        sim_drop = under_sim.admission_probability - over_sim.admission_probability
        live_drop = (
            under_live["admission_probability"] - over_live["admission_probability"]
        )
        assert sim_drop > 0.25  # the overload point really is one
        assert live_drop > 0.5 * sim_drop

    def test_live_run_settles_everything(self, curves):
        for _point, (_sim, live) in curves.items():
            tasks = live["tasks"]
            settled = tasks["admitted"] + tasks["rejected"]
            assert settled == tasks["generated"]
            assert live["drained"] is True
            assert live["clean_shutdown"] is True

    def test_latency_percentiles_reported(self, curves):
        for _point, (_sim, live) in curves.items():
            lat = live["latency_ms"]
            assert lat["count"] == live["tasks"]["generated"]
            assert 0.0 <= lat["p50"] <= lat["p99"] <= lat["max"]
