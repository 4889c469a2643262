"""Span recorder and layer wrappers, owned by the benchmark.

Nothing under ``src/`` knows about this file.  :func:`installed` wraps
the public entry points of each layer (class and module attributes) for
the duration of a ``with`` block and restores every one on exit, so the
untraced pass runs the code exactly as shipped.

A span is ``(name, start, end, parent)``; the run is single-threaded, so
the parent is whatever span is open on the stack when a new one opens.
Spans live in flat typed arrays (26 bytes each — a traced ``paper_grid``
records a few million) and are written once, by :meth:`Recorder.save`.
A span's *self* time is its duration minus its direct children's, so
the self times of all spans partition the traced wall time exactly.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

__all__ = ["Recorder", "SpanStats", "installed"]


class SpanStats(NamedTuple):
    """Per-name aggregate over the spans of one window."""

    calls: int
    total_s: float  # sum of durations (a nested same-name span counts twice)
    self_s: float   # sum of self times


class Recorder:
    """In-memory span store for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: List[int] = [-1]
        #: counts read off live objects at the same boundaries as spans
        self.counts: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` bracketed by a span called ``name``."""
        nid = self._id(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        """Coroutine variant.  Other asyncio tasks run while ``fn`` awaits;
        their (synchronous) spans open and close inside it and become its
        children, which is the attribution wanted for a run loop."""
        nid = self._id(name)

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                return await fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                if self._stack.pop() != idx:
                    raise RuntimeError(f"overlapping async spans at {name!r}")

        return traced

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # copies: a live view would pin the arrays against further appends
        return (
            np.array(self.name_id, dtype=np.uint16),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.parent, dtype=np.int64),
        )

    def summary(
        self, window: Optional[Tuple[float, float]] = None
    ) -> Dict[str, SpanStats]:
        """Calls, total and self seconds per span name.

        ``window`` keeps only spans that *started* inside
        ``[t0, t1]`` (``perf_counter`` values) — the measured region of
        a run, excluding set-up and checks traced around it.
        """
        name_id, start, end, parent = self._arrays()
        dur = end - start
        children = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        self_t = dur - children
        keep = np.ones(len(dur), bool)
        if window is not None:
            keep = (start >= window[0]) & (start <= window[1])
        k = len(self.names)
        ids = name_id[keep]
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur[keep], minlength=k)
        selfs = np.bincount(ids, weights=self_t[keep], minlength=k)
        return {
            name: SpanStats(int(calls[i]), float(total[i]), float(selfs[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def durations(
        self, name: str, window: Optional[Tuple[float, float]] = None
    ) -> np.ndarray:
        """Durations of every ``name`` span, in start order."""
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(0)
        name_id, start, end, _ = self._arrays()
        keep = name_id == nid
        if window is not None:
            keep &= (start >= window[0]) & (start <= window[1])
        return (end - start)[keep]

    def save(self, path) -> None:
        """Write every span once (``numpy.savez``; see bench/README.md)."""
        name_id, start, end, parent = self._arrays()
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
        )


#: message kind -> span name for handlers wrapped at ``register`` time;
#: every other kind (HELP / PLEDGE / ADV / gossip) is a discovery handler
_ADMIT_KINDS = ("ADMIT_REQ", "ADMIT_REP")


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


@contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    """Wrap each layer's entry points with ``rec`` spans; restore on exit.

    Systems must be *built* inside the block: message handlers are
    wrapped as they are registered with the transport.
    """
    from repro.experiments import executor, runner, sweep
    from repro.experiments.store import RunStore
    from repro.live.runtime import LiveRuntime
    from repro.live.scheduler import LiveScheduler
    from repro.live.transport import LiveTransport
    from repro.metrics.collector import MetricsCollector
    from repro.migration.admission import AdmissionControl
    from repro.migration.migrator import MigrationCoordinator
    from repro.network.routing import Router
    from repro.network.transport import Transport
    from repro.node.host import Host
    from repro.protocols import registry  # noqa: F401  (imports every agent class)
    from repro.protocols.base import DiscoveryAgent
    from repro.workload.arrivals import ArrivalGenerator

    import workloads

    undo: List[Tuple[object, str, object]] = []

    def patch(owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span(name: str) -> Callable[[Callable], Callable]:
        return lambda fn: rec.wrap(fn, name)

    def span_async(name: str) -> Callable[[Callable], Callable]:
        return lambda fn: rec.wrap_async(fn, name)

    def counting_run(fn: Callable) -> Callable:
        traced = rec.wrap(fn, "sim.run")

        @functools.wraps(fn)
        def run(system, *args, **kwargs):
            before = system.sim.events_executed
            try:
                return traced(system, *args, **kwargs)
            finally:
                rec.counts["sim.events"] = (
                    rec.counts.get("sim.events", 0)
                    + system.sim.events_executed - before
                )

        return run

    def wrapping_register(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def register(transport, node, kind, handler):
            name = (
                "migration.admit_handler" if kind in _ADMIT_KINDS
                else "protocols.handler"
            )
            return fn(transport, node, kind, rec.wrap(handler, name))

        return register

    try:
        # the speed probe runs between slices, sometimes inside a span
        # (the sweep's progress hook): keep it out of that span's self time
        patch(workloads, "calibrate", span("bench.calibrate"))
        patch(sweep, "execute_plan", span("experiments.execute"))
        patch(executor, "run_cell", span("experiments.run_cell"))
        patch(runner, "build_system", span("experiments.build"))
        patch(runner.System, "run", counting_run)
        patch(runner.System, "result", span("experiments.result"))
        patch(RunStore, "put", span("experiments.store_put"))
        patch(RunStore, "get", span("experiments.store_get"))
        patch(Transport, "flood", span("network.flood"))
        patch(Transport, "unicast", span("network.unicast"))
        patch(Transport, "register", wrapping_register)
        patch(Router, "distance", span("network.routing"))
        patch(MigrationCoordinator, "place_task", span("migration.place"))
        patch(AdmissionControl, "negotiate", span("migration.negotiate"))
        patch(Host, "try_accept", span("node.try_accept"))
        # the arrival pump's kernel callback: gap and origin draws, task
        # construction (the runner's emit closure), rescheduling
        patch(ArrivalGenerator, "_fire", span("workload.emit"))
        patch(MetricsCollector, "on_cost", span("metrics.on_cost"))
        for cls in _subclasses(DiscoveryAgent):
            if "candidates" in vars(cls):
                patch(cls, "candidates", span("protocols.candidates"))
            if "notify_task_arrival" in vars(cls):
                patch(cls, "notify_task_arrival", span("protocols.notify"))
        patch(LiveRuntime, "run", span_async("live.run"))
        patch(LiveScheduler, "run", span_async("live.sched_run"))
        patch(LiveTransport, "start", span_async("live.start"))
        patch(LiveTransport, "aclose", span_async("live.teardown"))
        patch(LiveTransport, "flood", span("live.transport"))
        patch(LiveTransport, "unicast", span("live.transport"))
        patch(LiveTransport, "register", wrapping_register)
        yield rec
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
