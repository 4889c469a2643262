"""The arrival process and the generator that drives it.

The paper: "The task arrival forms a Poisson process with a rate of
lambda" and "the generated task is given to a node randomly selected
from Node 0 through Node 24".  :class:`PoissonArrivals` reproduces this.

An arrival process is a pull-style iterator over ``(time, node)`` pairs
driven by the generator component, which re-schedules itself through the
kernel — one event per arrival, no batch pre-generation, so horizons and
rates can be changed mid-run (the attack scenarios do).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from ..runtime.api import Priority

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.api import SchedulerAPI

__all__ = ["PoissonArrivals", "ArrivalGenerator"]


class PoissonArrivals:
    """Poisson process at ``rate`` tasks/s, uniform random origin.

    ``next_gap`` is the seconds until the next arrival; ``next_origin``
    the node it lands on, drawn from ``live_nodes`` (``None`` drops the
    arrival: no node is live).
    """

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.rng = rng

    def next_gap(self) -> float:
        return float(self.rng.exponential(1.0 / self.rate))

    def next_origin(self, live_nodes: Sequence[int]) -> Optional[int]:
        if not live_nodes:
            return None
        return int(live_nodes[int(self.rng.integers(len(live_nodes)))])


class ArrivalGenerator:
    """Kernel-driven arrival pump.

    Each firing draws a gap from the process, asks for an origin among
    live nodes, builds nothing itself — it hands ``(origin)`` to the
    ``emit`` callback (the runner constructs the task and routes it to
    the coordinator).
    """

    def __init__(
        self,
        sim: "SchedulerAPI",
        process: PoissonArrivals,
        emit: Callable[[int], None],
        live_nodes: Callable[[], List[int]],
        *,
        until: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.process = process
        self.emit = emit
        self.live_nodes = live_nodes
        self.until = until
        self.generated = 0
        self.dropped_no_live_node = 0
        self._stopped = False
        # Arrivals chain on an absolute timeline, not on the clock at
        # fire time.  In the discrete-event kernel the two are the same
        # (an event fires exactly at its scheduled instant); on the live
        # scheduler each firing runs a little *after* its deadline, and
        # "now + gap" would compound that lateness into a permanently
        # slowed arrival process.  An open-loop generator keeps the rate:
        # late arrivals burst to catch up instead of stretching the gaps.
        self._next_time = sim.now
        self._schedule_next()

    def _schedule_next(self) -> None:
        t = self._next_time + self.process.next_gap()
        if self.until is not None and t > self.until:
            return
        self._next_time = t
        self.sim.at(t, self._fire, priority=Priority.ARRIVAL)

    def _fire(self) -> None:
        if self._stopped:
            return
        origin = self.process.next_origin(self.live_nodes())
        if origin is None:
            self.dropped_no_live_node += 1
        else:
            self.generated += 1
            self.emit(origin)
        self._schedule_next()

    def stop(self) -> None:
        self._stopped = True
