"""Per-task state ends with the task: what a drained runtime retains.

The invariant: a :class:`~repro.live.runtime.LiveRuntime` keeps O(resident
tasks) of state plus one 8-byte latency sample per settled task — no
id and no boxed number outlives the task it was made for.  The
tests measure memory (``tracemalloc``) and structure only, and the live
runs are on the ``manual_clock`` of ``conftest.py``: a wait the scheduler
arms passes at once, so a run is CPU-bound and takes about a second under
the tracer.  (On the wall clock a saturated scheduler lets virtual time
run away from the agenda: completions fall due after the horizon and
every task is still resident at the drain — peak residency, not residue.)
"""

import asyncio
import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, run_experiment
from repro.live import LiveConfig, run_live
from repro.live.runtime import LiveRuntime
from tests.oracles import group_sizes, post_one_by_one

H = 10.0
#: retained bytes per generated task: 8 for the sample, the rest headroom
#: for the array's over-allocation (the parent commit read ~460)
SLOPE_CEILING = 32.0


def live_config(backend: str, horizon: float, **overrides) -> LiveConfig:
    return LiveConfig(
        arrival_rate=100.0,
        task_mean=0.2,  # load 0.8 on the 25 nodes: resident work is stable
        queue_capacity=2.0,  # ... in short queues, so that some tasks migrate
        horizon=horizon,
        time_scale=100.0,
        backend=backend,
        seed=3,
        **overrides,
    )


def resident_ids(rt: LiveRuntime) -> set:
    return {
        task.task_id
        for host in rt.system.hosts.values()
        for task in host.queue.resident_tasks()
    }


async def run_to_idle(rt: LiveRuntime) -> dict:
    """``rt.run()``, the structural checks at the drain, then the clock
    kept going until every resident task has completed."""
    samples = []
    settle = rt.metrics._settle

    def recording_settle(task):
        settle(task)
        samples.append(rt.metrics.latencies_ms[-1])

    rt.metrics._settle = recording_settle
    in_flight_at_close = []
    aclose = rt.transport.aclose

    async def recording_aclose():
        in_flight_at_close.append(len(rt.transport._payloads))
        await aclose()

    rt.transport.aclose = recording_aclose

    report = await rt.run()
    assert report["drained"] and report["clean_shutdown"]
    generated = report["tasks"]["generated"]

    # at the drain: one id per resident task, no more
    assert rt.metrics._settled_ids == resident_ids(rt)
    assert in_flight_at_close == [0]  # the udp payload table drained too

    # one exact sample per task, and the percentiles are numpy's over them
    latency = report["latency_ms"]
    assert latency["count"] == len(samples) == generated
    assert rt.metrics.latency_hist.total() == generated
    assert latency["p50"] == float(np.percentile(samples, 50))
    assert latency["p99"] == float(np.percentile(samples, 99))
    assert latency["max"] == max(samples)

    # every completion is due by its host's busy_until
    done_by = max(host.queue.busy_until for host in rt.system.hosts.values())
    await rt.sim.run(until=done_by + 0.01)
    assert resident_ids(rt) == set()
    assert not rt.metrics._settled_ids
    assert rt.metrics.tasks.completed == report["tasks"]["admitted"]
    del rt.metrics._settle, rt.transport.aclose
    return report


def retained_after(make, run) -> tuple:
    """``(bytes still allocated, run(make()))`` with the made object alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        obj = make()
        out = run(obj)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("backend", ["inproc", "udp"])
def test_live_runtime_retains_one_sample_per_task(backend, manual_clock):
    def measure(horizon: float) -> tuple:
        return retained_after(
            lambda: LiveRuntime(live_config(backend, horizon)),
            lambda rt: asyncio.run(run_to_idle(rt))["tasks"],
        )

    measure(H / 10)  # first-use allocations (imports, caches) are not residue
    held_1, tasks_1 = measure(H)
    held_4, tasks_4 = measure(4 * H)
    extra = tasks_4["generated"] - tasks_1["generated"]
    assert extra > 2 * tasks_1["generated"] > 1500
    assert tasks_4["admitted_migrated"] > 20  # both ways in were taken
    slope = (held_4 - held_1) / extra
    assert slope <= SLOPE_CEILING, f"{slope:.0f} B retained per generated task"


def test_an_inproc_run_is_one_coroutine(manual_clock):
    # no task per node: the scheduler's run loop is all there is to interleave
    rt = LiveRuntime(live_config("inproc", H))
    running = []
    rt.sim.at(H / 2, lambda: running.append(len(asyncio.all_tasks())))
    report = asyncio.run(rt.run())
    assert running == [1]
    assert report["drained"] and report["clean_shutdown"]
    # what this seed counts on this clock; reading it does not move it,
    # so these figures do not depend on how often the code reads the time
    assert report["messages"] == {"sent": 80, "delivered": 112, "dropped": 0}
    assert report["tasks"]["generated"] == 965
    assert report["tasks"]["admitted_migrated"] == 7
    # a task completion is no event and wakes nothing: 1 937 waits were
    # resumed while the run woke for every event
    assert report["scheduler"]["wakeups"] == 1069


def test_an_inproc_flood_is_one_event_as_in_the_simulator(manual_clock):
    # the same run with every message posted as an event of its own: the
    # grouped post changes the event count and nothing else
    def run(grouped: bool) -> tuple:
        rt = LiveRuntime(live_config("inproc", H))
        if grouped:
            sizes = group_sizes(rt.transport)
        else:
            post_one_by_one(rt.transport)
            sizes = []
        report = asyncio.run(rt.run())
        seen = (
            report["messages"], report["tasks"], report["latency_ms"]["count"],
            report["scheduler"]["wakeups"],
        )
        return seen, report["scheduler"]["events_executed"], sizes

    grouped, reference = run(grouped=True), run(grouped=False)
    assert grouped[0] == reference[0]
    assert reference[2] == [] and max(grouped[2]) > 1
    assert reference[1] - grouped[1] == sum(n - 1 for n in grouped[2])


def test_series_sample_a_simulated_twins_instants(manual_clock):
    # The stock cadence is horizon / SAMPLES_TARGET: a run four times as
    # long takes as many samples, at the instants its simulated twin takes.
    def from_baseline(payload: dict) -> dict:
        # a per-kind message series starts at its kind's first send
        return {n: s["t"] for n, s in payload["series"].items() if s["t"][0] == 0.0}

    points = []
    for horizon in (H, 4 * H):
        cfg = live_config("inproc", horizon)
        live = asyncio.run(run_live(cfg))["series"]
        twin = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(ExperimentConfig)}
        sim = run_experiment(ExperimentConfig(**twin)).series
        assert from_baseline(live) == from_baseline(sim)
        assert all(len(s["t"]) <= live["ticks"] for s in live["series"].values())
        points.append({n: len(t) for n, t in from_baseline(live).items()})
    assert points[0] == points[1]


def test_simulator_retains_nothing_per_round():
    # The twin on the simulated clock: the agents' per-round state (the
    # HELP-interval trail was a tuple per adaptation) must not grow with
    # the horizon.  Overloaded REALTOR, so the interval adapts all run.
    def measure(horizon: float) -> int:
        def run(system) -> None:
            system.run()
            system.generator.stop()  # then let the resident tasks finish
            system.sim.run(until=horizon + system.cfg.queue_capacity + 1.0)
            assert not any(len(host.queue) for host in system.hosts.values())

        cfg = ExperimentConfig(
            protocol="realtor", rows=3, cols=3, arrival_rate=3.0,
            horizon=horizon, seed=5,
        )
        return retained_after(lambda: build_system(cfg), run)[0]

    measure(100.0)
    short, long = measure(500.0), measure(2000.0)
    # parent commit: +58 KB, 10 bytes per adaptation and node
    assert long - short <= 16_384
