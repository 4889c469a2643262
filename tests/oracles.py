"""Reference implementations the tests check the product against.

None of these run in a simulation: the product labels components with
``Transport``'s epoch structure, builds its live overlay in
``Transport._live_overlay``, charges hop counts through ``Router``,
retires finished tasks lazily in ``WorkQueue`` and posts a fan-out's
same-instant deliveries as one agenda event (``Transport._post``).  They
are the plain, obviously-correct versions the tests use as oracles and
as assertions ("the overlay is connected", "a PLEDGE followed every
HELP").
"""

from __future__ import annotations

from collections import deque
from functools import wraps
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.network.faults import FaultManager
from repro.network.topology import NodeId, Topology
from repro.node.task import TaskStatus
from repro.runtime.api import Priority
from repro.sim.trace import TraceRecord, Tracer


def shortest_path(topo: Topology, source: NodeId, dest: NodeId) -> Optional[List[NodeId]]:
    """One shortest node path ``source..dest`` (deterministic: smallest-id
    predecessor wins), or ``None`` if unreachable."""
    if not topo.has_node(source) or not topo.has_node(dest):
        raise KeyError("endpoint not in topology")
    if source == dest:
        return [source]
    parent: Dict[NodeId, NodeId] = {source: source}
    dq = deque([source])
    while dq:
        cur = dq.popleft()
        for nxt in topo.neighbors(cur):  # sorted => deterministic parents
            if nxt not in parent:
                parent[nxt] = cur
                if nxt == dest:
                    path = [dest]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                dq.append(nxt)
    return None


def connected_components(topo: Topology) -> List[FrozenSet[NodeId]]:
    """Connected components, each as a frozenset, largest first."""
    seen: Set[NodeId] = set()
    comps: List[FrozenSet[NodeId]] = []
    for start in topo.nodes():
        if start in seen:
            continue
        frontier = [start]
        comp = {start}
        while frontier:
            cur = frontier.pop()
            for nxt in topo.neighbors(cur):
                if nxt not in comp:
                    comp.add(nxt)
                    frontier.append(nxt)
        seen |= comp
        comps.append(frozenset(comp))
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps


def is_connected(topo: Topology) -> bool:
    return topo.num_nodes > 0 and len(connected_components(topo)) == 1


def live_topology(faults: FaultManager) -> Topology:
    """Topology induced by UP nodes minus failed links."""
    sub = faults.topo.subgraph(faults.up_nodes())
    for u, v in list(sub.links()):
        if not faults.link_up(u, v):
            sub.remove_link(u, v)
    return sub


def trace_pairs(tracer: Tracer, first: str, second: str) -> List[Tuple[TraceRecord, TraceRecord]]:
    """Greedy in-order pairing of ``first`` records with later ``second`` s:
    request/response causality."""
    out: List[Tuple[TraceRecord, TraceRecord]] = []
    pending: deque = deque()
    for rec in tracer.records:
        if rec.category == first:
            pending.append(rec)
        elif rec.category == second and pending:
            out.append((pending.popleft(), rec))
    return out


class EventPerTaskQueue:
    """A work queue that schedules one ``Priority.STATE`` completion event
    per admitted task: what ``WorkQueue`` retires lazily, run eagerly.

    ``remove`` cancels and reschedules the events it shifts and
    ``drop_all`` cancels outright, so no event outlives its task.  Enough
    of ``WorkQueue``'s surface for a ``Host`` and its monitor.
    """

    def __init__(self, sim, capacity: float, on_complete=None) -> None:
        self.sim, self.capacity, self.on_complete = sim, float(capacity), on_complete
        self.busy_until = 0.0
        self.completed_count = 0
        self._resident: list = []  # [completion, task, event]

    def retire(self, now=None) -> None:
        """Nothing to retire: every completion is an event of its own."""

    def backlog(self, now=None) -> float:
        return max(0.0, self.busy_until - (self.sim.now if now is None else now))

    def usage(self, now=None) -> float:
        return min(self.backlog(now) / self.capacity, 1.0)

    def headroom(self, now=None) -> float:
        return self.capacity - self.backlog(now)

    def resident_tasks(self) -> list:
        return [task for _, task, _ in self._resident]

    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, task) -> bool:
        return any(t is task for t in self.resident_tasks())

    def try_admit(self, task):
        now = self.sim.now
        completion = max(self.busy_until, now) + task.size
        if completion - now > self.capacity + 1e-12:
            return None
        self.busy_until = completion
        entry = [completion, task, None]
        entry[2] = self.sim.at(completion, self._complete, entry, priority=Priority.STATE)
        self._resident.append(entry)
        return completion

    def _complete(self, entry) -> None:
        self._resident = [e for e in self._resident if e is not entry]
        entry[1].mark_completed(self.sim.now)
        self.completed_count += 1
        if self.on_complete is not None:
            self.on_complete(entry[1])

    def drop_all(self) -> list:
        lost = self.resident_tasks()
        for _, task, event in self._resident:
            self.sim.cancel(event)
            task.mark_lost()
        self._resident = []
        self.busy_until = self.sim.now
        return lost

    def remove(self, task) -> None:
        at = next(i for i, e in enumerate(self._resident) if e[1] is task)
        now = self.sim.now
        if at == 0 and now - (self._resident[0][0] - task.size) > 1e-12:
            raise ValueError(f"task {task.task_id} already started")
        self.sim.cancel(self._resident.pop(at)[2])
        for entry in self._resident[at:]:
            self.sim.cancel(entry[2])
            entry[0] -= task.size
            entry[2] = self.sim.at(
                max(entry[0], now), self._complete, entry, priority=Priority.STATE
            )
        self.busy_until -= task.size
        task.status = TaskStatus.CREATED


def post_one_by_one(transport) -> None:
    """Rewire ``transport`` to post every message as an agenda event (or
    datagram) of its own: the reference a post of many messages must be
    observationally identical to."""
    post = transport._post

    def one_by_one(delay, messages):
        for message in messages:
            post(delay, [message])

    transport._post = one_by_one


def group_sizes(transport) -> List[int]:
    """A list that collects the number of messages of every ``_deliver``
    call ``transport`` makes from now on, as it runs (a profiler still
    files the events under ``Transport._deliver``)."""
    sizes: List[int] = []
    deliver = transport._deliver

    @wraps(deliver)
    def counting(messages):
        sizes.append(len(messages))
        deliver(messages)

    transport._deliver = counting
    return sizes
