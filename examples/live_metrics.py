#!/usr/bin/env python
"""Instrumenting a run: time series, samplers and terminal charts.

The figure harness reports end-of-run aggregates; this walk-through
shows the *trajectory* instrumentation: a `MetricsRegistry` sampler
records mean queue usage and REALTOR's adaptive HELP interval over time, and the
ASCII renderer draws them — watch the interval pin itself at
Upper_limit as a load burst arrives, and release afterwards (the
Algorithm H dynamics of the paper, live).

Run:  python examples/live_metrics.py
"""

import numpy as np

from repro import paper_config, build_system
from repro.analysis.ascii_chart import render
from repro.obs.registry import MetricsRegistry


def main() -> None:
    # moderate base load with an overload burst in the middle third
    cfg = paper_config("realtor", 4.0, horizon=1_800.0, seed=21)
    system = build_system(cfg)

    # burst: triple the arrival rate between t=600 and t=1200 by
    # injecting a second generator for that window
    import itertools

    from repro.node.task import Task
    from repro.workload.arrivals import ArrivalGenerator, PoissonArrivals

    # the system numbers its own tasks from 0; burst ids must not collide
    burst_ids = itertools.count(10**9)

    def start_burst() -> None:
        burst = PoissonArrivals(8.0, system.sim.streams.stream("burst"))

        def emit(origin: int) -> None:
            task = Task(
                size=float(system.sim.streams.stream("burst-sizes").exponential(5.0)),
                arrival_time=system.sim.now,
                origin=origin,
                task_id=next(burst_ids),
            )
            system.coordinator.place_task(task)

        ArrivalGenerator(system.sim, burst, emit, system.faults.up_nodes,
                         until=1_200.0)

    system.sim.at(600.0, start_burst)

    registry = MetricsRegistry(system.sim, interval=20.0)

    def probe(now: float) -> None:
        hosts = system.hosts.values()
        registry.record(now, "mean-usage", sum(h.usage() for h in hosts) / len(hosts))
        registry.record(now, "help-interval", system.mean_help_interval() or 0.0)
        registry.record(now, "view-staleness", system.mean_view_staleness())

    registry.add_sampler(probe)
    registry.start()  # the t=0 sample, then one every 20 s
    system.run()
    registry.finish()
    res = system.result()
    usage, interval, staleness = (
        registry.series[name]
        for name in ("mean-usage", "help-interval", "view-staleness")
    )

    xs = usage.times.tolist()
    print(render(
        xs,
        {"mean queue usage": usage.values.tolist()},
        title="Queue usage under a load burst (t=600..1200)",
        x_label="t (s)", y_min=0.0, y_max=1.0, height=12,
    ))
    print()
    print(render(
        xs,
        {"HELP interval (s)": interval.values.tolist()},
        title="Algorithm H: interval pinned at Upper_limit during overload",
        x_label="t (s)", height=12,
    ))
    print()
    print(render(
        xs,
        {"staleness (s)": staleness.values.tolist()},
        title="Mean view staleness",
        x_label="t (s)", height=10,
    ))
    print()
    # each sample holds until the next one: weight it by that span
    t, v = usage.times, usage.values
    time_averaged = float(np.dot(v[:-1], np.diff(t)) / (t[-1] - t[0]))
    print(
        f"run summary: P(admit)={res.admission_probability:.4f}, "
        f"messages={res.messages_total:,.0f}, "
        f"peak usage={v.max():.2f}, "
        f"time-averaged usage={time_averaged:.2f}"
    )


if __name__ == "__main__":
    main()
