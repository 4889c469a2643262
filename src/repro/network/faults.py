"""Node/link fault model.

The survivability scenarios mark nodes *compromised* (under external
attack) or *crashed* (failed).  Both make a node non-live for the
transport; the difference matters to the migration layer: a compromised
node is still running and must *evacuate* its components, a crashed node
simply loses them.

The fault manager is the single source of truth for liveness — transport,
protocols and the experiment runner all consult it, so a single
``fail``/``compromise`` call consistently silences a node everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Set, TYPE_CHECKING

from .topology import Link, NodeId, Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.api import SchedulerAPI

__all__ = ["NodeState", "FaultManager", "FaultEvent"]


class NodeState(str, Enum):
    UP = "up"
    CRASHED = "crashed"
    COMPROMISED = "compromised"


@dataclass(frozen=True)
class FaultEvent:
    """A record of a liveness transition, kept for post-run analysis."""

    time: float
    node: NodeId
    state: NodeState


@dataclass
class FaultManager:
    """Tracks per-node state and failed links, with change notification.

    ``on_change(node, state)`` observers let protocol agents react (e.g.
    a compromised node triggers an evacuation; a recovered node rejoins
    and rebuilds its community).
    """

    sim: "SchedulerAPI"
    topo: Topology
    _states: Dict[NodeId, NodeState] = field(default_factory=dict)
    _down_links: Set[Link] = field(default_factory=set)
    _observers: List[Callable[[NodeId, NodeState], None]] = field(default_factory=list)
    history: List[FaultEvent] = field(default_factory=list)
    #: bumped on every liveness transition; consumers key caches on it
    version: int = 0
    #: outstanding down-window holds per node (see :meth:`hold_down`)
    _holds: Dict[NodeId, int] = field(default_factory=dict)
    #: (topo.version, self.version, up-node list) memo for :meth:`up_nodes`
    _up_cache: Optional[tuple] = field(default=None, repr=False)
    #: optional NodeStateArrays mirror (see :meth:`attach_state`)
    _state_arrays: Optional[object] = field(default=None, repr=False)

    def attach_state(self, arrays) -> None:
        """Write liveness through to ``arrays.up`` on every transition.

        Seeds the column from current state first, so attaching mid-run
        (after faults already happened) is safe.
        """
        for nid, state in self._states.items():
            idx = arrays.index.get(nid)
            if idx is not None:
                arrays.up[idx] = state is NodeState.UP
        self._state_arrays = arrays

    # Liveness queries -----------------------------------------------------

    # The three predicates read ``_states`` themselves rather than call
    # ``state()``: they are the hottest calls in the tree (the transport's,
    # the coordinator's and every agent's liveness test), one frame each.

    def state(self, node: NodeId) -> NodeState:
        return self._states.get(node, NodeState.UP)

    def is_up(self, node: NodeId) -> bool:
        """Fully operational: accepts work, pledges, hosts components."""
        return self._states.get(node, NodeState.UP) is NodeState.UP

    def can_communicate(self, node: NodeId) -> bool:
        """Able to send/receive messages.

        A *crashed* node is silent; a *compromised* node is still running
        — it must communicate to evacuate its components (that is the
        entire point of survivability) — but it no longer accepts work or
        advertises availability (see ``is_up``).
        """
        return self._states.get(node) is not NodeState.CRASHED

    def is_compromised(self, node: NodeId) -> bool:
        return self._states.get(node) is NodeState.COMPROMISED

    def up_nodes(self) -> List[NodeId]:
        """Sorted ids of fully-operational nodes (amortised O(1)).

        This is the per-arrival hot query — the origin draw indexes into
        it for every generated task — so the list is memoised on
        ``(topo.version, version)`` and recomputed only when the overlay
        or some node's liveness actually changes.  Callers treat the
        result as read-only (all in-tree callers index, slice, or
        iterate); mutate a copy if you must.
        """
        cache = self._up_cache
        key = (self.topo.version, self.version)
        if cache is not None and cache[0] == key:
            return cache[1]
        if not self._states:
            live = self.topo.nodes()  # already a fresh sorted copy
        else:
            live = [n for n in self.topo.nodes() if self.is_up(n)]
        self._up_cache = (key, live)
        return live

    def link_up(self, u: NodeId, v: NodeId) -> bool:
        link = (u, v) if u <= v else (v, u)
        return link not in self._down_links

    # Transitions -----------------------------------------------------------

    def crash(self, node: NodeId) -> None:
        self._transition(node, NodeState.CRASHED)

    def compromise(self, node: NodeId) -> None:
        self._transition(node, NodeState.COMPROMISED)

    def recover(self, node: NodeId) -> None:
        """Unconditionally revive ``node``, clearing any outstanding
        down-window holds (manual recovery overrides scheduled windows)."""
        self._holds.pop(node, None)
        self._transition(node, NodeState.UP)

    # Reference-counted down-windows --------------------------------------

    def hold_down(self, node: NodeId, state: NodeState = NodeState.COMPROMISED) -> None:
        """Open one down-window on ``node`` (refcounted).

        Overlapping attack plans each open their own window; the node
        stays down until *every* window is released.  Without the count,
        a ``recover`` scheduled by an earlier window would revive a node
        a later overlapping window still holds compromised.
        """
        if state is NodeState.UP:
            raise ValueError("hold_down needs a non-UP state")
        self._holds[node] = self._holds.get(node, 0) + 1
        self._transition(node, state)

    def release_down(self, node: NodeId) -> None:
        """Close one down-window; the node recovers when none remain."""
        remaining = self._holds.get(node, 0) - 1
        if remaining > 0:
            self._holds[node] = remaining
            return
        self._holds.pop(node, None)
        self._transition(node, NodeState.UP)

    def holds(self, node: NodeId) -> int:
        """Outstanding down-window count for ``node`` (diagnostics)."""
        return self._holds.get(node, 0)

    def fail_link(self, u: NodeId, v: NodeId) -> None:
        """Remove a link from the live overlay (kept in ``topo``; routing
        sees the removal through :meth:`live_topology`)."""
        if not self.topo.has_link(u, v):
            raise KeyError(f"no such link: {(u, v)}")
        self._down_links.add((u, v) if u <= v else (v, u))
        self.version += 1

    def restore_link(self, u: NodeId, v: NodeId) -> None:
        self._down_links.discard((u, v) if u <= v else (v, u))
        self.version += 1

    def _transition(self, node: NodeId, state: NodeState) -> None:
        if not self.topo.has_node(node):
            raise KeyError(f"no such node: {node}")
        if self.state(node) is state:
            return
        self._states[node] = state
        self.version += 1
        arrays = self._state_arrays
        if arrays is not None:
            idx = arrays.index.get(node)
            if idx is not None:
                arrays.up[idx] = state is NodeState.UP
        self.history.append(FaultEvent(self.sim.now, node, state))
        self.sim.trace.emit(self.sim.now, "fault", node=node, state=state.value)
        for fn in self._observers:
            fn(node, state)

    # Scheduling helpers ------------------------------------------------------

    def schedule_crash(self, time: float, node: NodeId) -> None:
        self.sim.at(time, self.crash, node)

    def schedule_compromise(self, time: float, node: NodeId) -> None:
        self.sim.at(time, self.compromise, node)

    def schedule_recover(self, time: float, node: NodeId) -> None:
        self.sim.at(time, self.recover, node)

    def schedule_window(
        self, start: float, end: float, node: NodeId,
        state: NodeState = NodeState.COMPROMISED,
    ) -> None:
        """Schedule one refcounted down-window ``[start, end)``."""
        self.sim.at(start, self.hold_down, node, state)
        self.sim.at(end, self.release_down, node)

    # Observation ---------------------------------------------------------------

    def on_change(self, fn: Callable[[NodeId, NodeState], None]) -> None:
        self._observers.append(fn)

    def live_topology(self) -> Topology:
        """Topology induced by UP nodes minus failed links."""
        sub = self.topo.subgraph(self.up_nodes())
        for u, v in list(sub.links()):
            if not self.link_up(u, v):
                sub.remove_link(u, v)
        return sub

    def downtime_fraction(self, horizon: float, node: Optional[NodeId] = None) -> float:
        """Fraction of ``[0, horizon]`` the node (or mean over all nodes)
        spent non-UP, reconstructed from the transition history."""
        nodes = [node] if node is not None else self.topo.nodes()
        total = 0.0
        for n in nodes:
            events = [e for e in self.history if e.node == n and e.time <= horizon]
            events.sort(key=lambda e: e.time)
            down_since: Optional[float] = None
            down = 0.0
            for e in events:
                if e.state is NodeState.UP:
                    if down_since is not None:
                        down += e.time - down_since
                        down_since = None
                elif down_since is None:
                    down_since = e.time
            if down_since is not None:
                down += horizon - down_since
            total += down / horizon if horizon > 0 else 0.0
        return total / len(nodes)
