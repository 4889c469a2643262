"""Attack injection — the survivability workload.

The paper motivates REALTOR with "emergencies like external attack,
malfunction, or lack of resources": nodes come under attack, their
resources become unavailable, and resident components must migrate to
safe locations.  The injector produces timed compromise/recover (and
crash) transitions against the fault manager:

* ``sweep`` — an attacker walks the network, compromising one node at a
  time for a dwell period (localised external attack);
* ``region`` — all nodes within a hop radius of a target go down
  simultaneously (e.g. a subnet-level DoS);
* ``random`` — memoryless crash/recover churn (malfunction rather than
  attack), stressing the protocols' statelessness claim.

:class:`AttackConfig` is the one description of an attack, the
declarative knob on :class:`~repro.experiments.config.ExperimentConfig`:
when set, the runner expands it with :meth:`AttackConfig.plan` against
the overlay, from the kernel's named ``"attack"`` RNG substream, and
installs the resulting :class:`AttackPlan` on the fault manager, on
either runtime.  Every schedule is computed up front from that seeded
stream, so attack runs are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..network.faults import FaultManager
from ..network.routing import Router
from ..network.topology import Topology

__all__ = ["AttackConfig", "AttackPlan"]


@dataclass(frozen=True)
class AttackPlan:
    """A materialised schedule of (time, action, node) transitions."""

    transitions: Tuple[Tuple[float, str, int], ...]  # action: compromise|recover|crash

    def install(self, faults: FaultManager) -> None:
        """Schedule every transition on the fault manager's kernel.

        Down transitions open refcounted windows
        (:meth:`~repro.network.faults.FaultManager.hold_down`) and each
        ``recover`` releases one, so composing overlapping plans works: a
        node compromised by two windows stays down until *both* have
        ended, instead of the earlier window's recovery reviving it
        mid-attack.  Single-plan schedules behave exactly as before
        (every window holds and releases its own count of one).
        """
        from ..network.faults import NodeState

        for time, action, node in self.transitions:
            if action == "compromise":
                faults.sim.at(time, faults.hold_down, node, NodeState.COMPROMISED)
            elif action == "crash":
                faults.sim.at(time, faults.hold_down, node, NodeState.CRASHED)
            elif action == "recover":
                faults.sim.at(time, faults.release_down, node)
            else:
                raise ValueError(f"unknown action: {action}")

    @property
    def nodes_touched(self) -> List[int]:
        return sorted({n for _, _, n in self.transitions})

    def __len__(self) -> int:
        return len(self.transitions)


@dataclass(frozen=True)
class AttackConfig:
    """Declarative attack axis for an experiment (all seeded).

    ``kind`` picks the schedule; each reads only its own fields:
    ``sweep`` (``start``, ``dwell``, ``victims`` — clamped to the node
    count), ``region`` (``epicentre``, ``radius``, ``start``,
    ``duration``) and ``random`` (``mtbf``, ``mttr`` over the horizon).
    """

    kind: str = "sweep"
    start: float = 100.0
    dwell: float = 50.0
    victims: int = 5
    epicentre: int = 0
    radius: int = 1
    duration: float = 100.0
    mtbf: float = 400.0
    mttr: float = 50.0

    def __post_init__(self) -> None:
        # checked here so a bad cell fails at construction rather than
        # inside a pool worker
        if self.kind not in ("sweep", "region", "random"):
            raise ValueError(f"unknown attack kind: {self.kind!r}")
        if self.dwell <= 0 or self.victims < 1:
            raise ValueError("need dwell > 0 and victims >= 1")
        if self.epicentre < 0 or self.radius < 0 or self.duration <= 0:
            raise ValueError("need epicentre >= 0, radius >= 0 and duration > 0")
        if self.mtbf <= 0 or self.mttr <= 0:
            raise ValueError("mtbf and mttr must be positive")

    def plan(self, topo: Topology, horizon: float, rng: np.random.Generator) -> AttackPlan:
        """Expand the attack against a concrete overlay."""
        transitions: List[Tuple[float, str, int]] = []
        if self.kind == "sweep":
            # a seeded victim order: an attacker probing for the critical
            # component, the adversary location-elusive migration defeats
            t = self.start
            for victim in rng.permutation(topo.nodes())[: self.victims]:
                transitions.append((t, "compromise", int(victim)))
                transitions.append((t + self.dwell, "recover", int(victim)))
                t += self.dwell
        elif self.kind == "region":
            ring = set(Router(topo).within(self.epicentre, self.radius))
            for victim in sorted(ring | {self.epicentre}):
                transitions.append((self.start, "compromise", victim))
                transitions.append((self.start + self.duration, "recover", victim))
        else:
            # per node: up for Exp(mtbf), down for Exp(mttr), until the horizon
            for node in topo.nodes():
                t = float(rng.exponential(self.mtbf))
                while t < horizon:
                    transitions.append((t, "crash", int(node)))
                    repair = float(rng.exponential(self.mttr))
                    if t + repair >= horizon:
                        break
                    transitions.append((t + repair, "recover", int(node)))
                    t = t + repair + float(rng.exponential(self.mtbf))
            transitions.sort(key=lambda x: (x[0], x[2]))
        return AttackPlan(tuple(transitions))
