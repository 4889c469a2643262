"""Shared numpy mirrors of per-node scalar state.

A single large run spends its time asking the same questions about
thousands of nodes at once: *what is your backlog* and *are you
available*.  The scalar objects (:class:`WorkQueue
<repro.node.queue.WorkQueue>`, :class:`ThresholdMonitor
<repro.node.monitor.ThresholdMonitor>`, :class:`FaultManager
<repro.network.faults.FaultManager>`) answer them one node at a time
through Python attribute chains; at the 2.5k/10k tiers that per-node cost
dominates cohort-wide operations like priming protocol views or taking an
availability census.

:class:`NodeStateArrays` keeps column vectors of the scalar state —
``busy_until``, ``capacity``, each queue's next completion instant,
threshold targets and liveness — maintained by *write-through* from the
scalar owners (the queue mutates its slot on every state change, the
host writes its monitor's fixed threshold once, and the fault manager
flips ``up`` on every transition).  The scalar objects remain the source
of truth and the only mutators; the arrays are a read-optimised mirror,
so every vectorized answer is observationally identical to looping the
scalar queries — an equivalence pinned by the hypothesis property test
in ``tests/property/test_state_array_props.py``.

The analytic identities mirrored here are exactly the scalar ones:

* ``backlog(t)   = max(0, busy_until - t)``            (queue)
* ``usage(t)     = min(backlog / capacity, 1)``        (queue)
* ``available(t) = up & (usage < threshold)``          (monitor + faults)
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

__all__ = ["NodeStateArrays"]

class NodeStateArrays:
    """Column-vector mirror of per-node queue/monitor/liveness state.

    Slots are assigned in the order ``node_ids`` is given — callers pass
    the canonical sorted node list so slot order equals node order and
    boolean masks can be zipped against it directly.
    """

    __slots__ = (
        "ids",
        "index",
        "busy_until",
        "capacity",
        "next_completion",
        "threshold",
        "up",
    )

    def __init__(self, node_ids: Iterable[int]) -> None:
        self.ids: List[int] = list(node_ids)
        self.index: Dict[int, int] = {nid: i for i, nid in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise ValueError("duplicate node ids")
        n = len(self.ids)
        #: instant each node's server goes idle (WorkQueue.busy_until)
        self.busy_until = np.zeros(n, dtype=np.float64)
        #: queue capacity in seconds; ones until a queue binds its slot
        self.capacity = np.ones(n, dtype=np.float64)
        #: completion instant of each queue's head task (inf: none
        #: resident), so the queues with a task due are found in one pass
        self.next_completion = np.full(n, np.inf)
        #: monitor availability threshold; ones (never crossed) until bound
        self.threshold = np.ones(n, dtype=np.float64)
        #: FaultManager.is_up per node
        self.up = np.ones(n, dtype=bool)

    def __len__(self) -> int:
        return len(self.ids)

    def slot(self, node_id: int) -> int:
        """Array row of ``node_id`` (KeyError when unknown)."""
        return self.index[node_id]

    # Vectorized queries --------------------------------------------------

    def backlog(self, now: float) -> np.ndarray:
        """Residual work per node: ``max(0, busy_until - now)``."""
        return np.maximum(self.busy_until - now, 0.0)

    def usage(self, now: float) -> np.ndarray:
        """Backlog as a capacity fraction, clamped to [0, 1]."""
        return np.minimum(self.backlog(now) / self.capacity, 1.0)

    def headroom(self, now: float) -> np.ndarray:
        """Seconds of work each queue can still accept."""
        return self.capacity - self.backlog(now)

    def snapshot_columns(
        self, now: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(backlog, usage, headroom, available)`` for every node.

        One backlog evaluation feeds all four columns — the vectorized
        analogue of :meth:`Host.snapshot <repro.node.host.Host.snapshot>`
        across the whole overlay, used to prime protocol views without
        N Python snapshot calls.
        """
        backlog = self.backlog(now)
        usage = np.minimum(backlog / self.capacity, 1.0)
        headroom = self.capacity - backlog
        available = self.up & (usage < self.threshold)
        return backlog, usage, headroom, available

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NodeStateArrays n={len(self.ids)} "
            f"up={int(self.up.sum())}>"
        )
