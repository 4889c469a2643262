"""Live-vs-sim equivalence, the seam's end-to-end contract: equal seeds
draw the identical workload, so generated counts match exactly, and
admission (timing-sensitive under real concurrency) matches within
``tests.contracts.TOLERANCE``.  Each row's ``live(time_scale)`` keeps the
wall arrival rate (800 and 4 000 tasks/s) inside the runtime's capacity
(``docs/live.md``: knee at 4 000-8 000): past it, the runtime lags and
admits more than the simulator.
"""

from tests.contracts import check

ROWS = ("live-underload.live", "live-overload.live")


def curves():
    """The (sim, live) observations of both load points, underload
    first, each held to the ``approx`` relation."""
    return [check(row) for row in ROWS]


class TestEquivalence:
    def test_same_seed_generates_identical_workload(self):
        for sim, live in curves():
            assert live.result["tasks"]["generated"] == sim.result.generated > 0

    def test_admission_probability_within_tolerance(self):
        # check() holds each point to TOLERANCE; the points straddle the knee
        (under, _), (over, _) = curves()
        assert under.result.admission_probability > 0.9 > over.result.admission_probability

    def test_curve_shape_preserved(self):
        # underload admits (nearly) everything; overload admits far less
        # — the live curve must bend the same way the sim curve does, and
        # by at least half of what the simulator's own curve drops
        (under_sim, under_live), (over_sim, over_live) = (
            (sim.result.admission_probability, live.result["admission_probability"])
            for sim, live in curves()
        )
        assert under_live > 0.9
        sim_drop = under_sim - over_sim
        assert sim_drop > 0.25  # the overload point really is one
        assert under_live - over_live > 0.5 * sim_drop

    def test_live_run_settles_everything(self):
        for _sim, live in curves():
            tasks = live.result["tasks"]
            settled = tasks["admitted"] + tasks["rejected"]
            assert settled == tasks["generated"]
            assert live.result["drained"] is True
            assert live.result["clean_shutdown"] is True

    def test_latency_percentiles_reported(self):
        for _sim, live in curves():
            lat = live.result["latency_ms"]
            assert lat["count"] == live.result["tasks"]["generated"]
            assert 0.0 <= lat["p50"] <= lat["p99"] <= lat["max"]
