"""Same-instant ordering semantics — the subtle event-priority contracts.

The kernel guarantees STATE < MESSAGE < ARRIVAL < SAMPLING within one
timestamp.  These tests pin down the externally visible consequences:
a completion at time t frees space for an arrival at time t; messages
delivered at t are visible to an arrival at t; samplers observe
post-event state.
"""

import pytest

from repro.node.host import Host
from repro.node.task import Task, TaskOutcome
from repro.sim.events import Priority
from repro.sim.kernel import Simulator


class TestCompletionBeforeArrival:
    def test_arrival_at_completion_instant_sees_freed_space(self):
        sim = Simulator()
        host = Host(sim, 0, capacity=10.0)
        host.try_accept(Task(size=10.0, arrival_time=0.0, origin=0), TaskOutcome.LOCAL)
        outcomes = []

        def arrival():
            t = Task(size=10.0, arrival_time=sim.now, origin=0)
            outcomes.append(host.try_accept(t, TaskOutcome.LOCAL) is not None)

        # completion fires at t=10 with STATE priority; the arrival at
        # the same instant (ARRIVAL priority) must see an empty queue
        sim.at(10.0, arrival, priority=Priority.ARRIVAL)
        sim.run()
        assert outcomes == [True]

    def test_arrival_just_before_completion_sees_full_queue(self):
        sim = Simulator()
        host = Host(sim, 0, capacity=10.0)
        host.try_accept(Task(size=10.0, arrival_time=0.0, origin=0), TaskOutcome.LOCAL)
        outcomes = []

        def arrival():
            t = Task(size=10.0, arrival_time=sim.now, origin=0)
            outcomes.append(host.try_accept(t, TaskOutcome.LOCAL) is not None)

        sim.at(10.0 - 1e-6, arrival, priority=Priority.ARRIVAL)
        sim.run()
        assert outcomes == [False]


class TestMessageBeforeArrival:
    def test_message_delivered_same_instant_updates_view_first(self):
        from repro.network.generators import mesh
        from repro.network.transport import Transport
        from repro.protocols.base import ProtocolConfig, ProtocolContext
        from repro.protocols.registry import make_agent

        sim = Simulator()
        topo = mesh(1, 2)
        transport = Transport(sim, topo)
        cfg = ProtocolConfig(scope="network")
        agents = {}
        for nid in (0, 1):
            host = Host(sim, nid, capacity=100.0)
            ctx = ProtocolContext(sim=sim, transport=transport, host=host,
                                  config=cfg, all_nodes=[0, 1])
            agents[nid] = make_agent("push-1", ctx)
            agents[nid].start()

        seen = []

        def arrival():
            seen.append(len(agents[1].view))

        # node 0's first periodic flood lands at t=1 (phase 0); the
        # arrival scheduled at the same instant runs after MESSAGE events
        sim.at(1.0, arrival, priority=Priority.ARRIVAL)
        sim.run(until=1.5)
        assert seen == [1]


class TestSamplingLast:
    def test_sampler_sees_post_event_state(self):
        from repro.obs.registry import MetricsRegistry

        sim = Simulator()
        host = Host(sim, 0, capacity=10.0)
        registry = MetricsRegistry(sim, interval=5.0)
        registry.add_sampler(lambda now: registry.record(now, "usage", host.usage()))
        registry.start()
        series = registry.series["usage"]

        def admit():
            host.try_accept(Task(size=5.0, arrival_time=sim.now, origin=0),
                        TaskOutcome.LOCAL)

        sim.at(5.0, admit, priority=Priority.ARRIVAL)
        sim.run(until=6.0)
        # the t=5 sample ran after the t=5 admission
        assert series.values.tolist()[-1] == pytest.approx(0.5)

    def test_state_priority_fires_before_default(self):
        sim = Simulator()
        order = []
        sim.at(1.0, lambda: order.append("default"))
        sim.at(1.0, lambda: order.append("state"), priority=Priority.STATE)
        sim.at(1.0, lambda: order.append("sampling"), priority=Priority.SAMPLING)
        sim.run()
        assert order == ["state", "default", "sampling"]
