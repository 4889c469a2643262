"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.network.faults import FaultManager
from repro.network.generators import mesh, paper_topology
from repro.network.transport import Transport
from repro.node.host import Host
from repro.node.task import Task
from repro.protocols.base import ProtocolConfig, ProtocolContext
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer


@pytest.fixture
def sim() -> Simulator:
    """A fresh kernel with tracing enabled (tests assert on traces)."""
    return Simulator(seed=42, trace=Tracer(enabled=True))


@pytest.fixture
def topo():
    """The paper's 5x5 mesh."""
    return paper_topology()


@pytest.fixture
def small_topo():
    """A 3x3 mesh for cheap protocol tests."""
    return mesh(3, 3)


@pytest.fixture
def faults(sim, topo):
    return FaultManager(sim, topo)


@pytest.fixture
def transport(sim, topo):
    return Transport(sim, topo)


@pytest.fixture
def make_host(sim):
    """Factory for hosts with paper defaults (capacity 100, threshold 0.9)."""

    def _make(node_id: int = 0, capacity: float = 100.0, threshold: float = 0.9) -> Host:
        return Host(sim, node_id, capacity=capacity, threshold=threshold)

    return _make


@pytest.fixture
def make_task(sim):
    """Factory for tasks arriving 'now' at a given origin."""

    def _make(size: float = 5.0, origin: int = 0, **kwargs) -> Task:
        return Task(size=size, arrival_time=sim.now, origin=origin, **kwargs)

    return _make


@pytest.fixture
def make_context(sim, transport, make_host):
    """Factory for protocol contexts over the shared transport."""

    def _make(node_id: int = 0, config: ProtocolConfig = None) -> ProtocolContext:
        host = make_host(node_id)
        return ProtocolContext(
            sim=sim,
            transport=transport,
            host=host,
            config=config or ProtocolConfig(),
            all_nodes=list(transport.topo.nodes()),
        )

    return _make


@pytest.fixture
def manual_clock(monkeypatch):
    """``LiveScheduler`` on a wall clock that moves only when ``run``
    would have slept, by exactly the wait it armed (and by a nanosecond
    per reading: time passes).  No margin is left to spin through.

    The run loop, the transport and its sockets stay the real ones; a run
    is CPU-bound and cannot fall behind its own clock, however slow the
    machine (or an allocation tracer) makes it.
    """
    from repro.live import scheduler

    wall = [0.0]

    def perf_counter() -> float:
        wall[0] += 1e-9
        return wall[0]

    class JumpTimer:  # the interface of scheduler._Timerfd
        def __init__(self, _loop, wake):
            self._wake = wake

        def arm(self, seconds: float) -> None:
            wall[0] += seconds
            self._wake()

        def close(self) -> None:
            pass

    monkeypatch.setattr(scheduler, "perf_counter", perf_counter)
    monkeypatch.setattr(scheduler, "_Timerfd", JumpTimer)
    monkeypatch.setattr(scheduler, "MARGIN", 0.0)
