"""Attack injection — the survivability workload.

The paper motivates REALTOR with "emergencies like external attack,
malfunction, or lack of resources": nodes come under attack, their
resources become unavailable, and resident components must migrate to
safe locations.  The injector produces timed compromise/recover (and
crash) transitions against the fault manager:

* :class:`SweepAttack` — an attacker walks the network, compromising one
  node at a time for a dwell period (localised external attack);
* :class:`RegionAttack` — all nodes within a hop radius of a target go
  down simultaneously (e.g. a subnet-level DoS);
* :class:`RandomFailures` — memoryless crash/recover churn (malfunction
  rather than attack).

Every schedule is computed up front from a seeded stream, so attack runs
are exactly reproducible.

:class:`AttackConfig` is the declarative knob on
:class:`~repro.experiments.config.ExperimentConfig`: when set, the
runner materialises it against the overlay from the kernel's named
``"attack"`` RNG substream and installs the plan on the fault manager,
on either runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..network.faults import FaultManager
from ..network.routing import Router
from ..network.topology import Topology

__all__ = ["AttackConfig", "SweepAttack", "RegionAttack", "RandomFailures", "AttackPlan"]


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

    ``kind`` picks the generator; each reads only its own fields:
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
        # the generators' own checks, made here so a bad cell fails at
        # construction rather than inside a pool worker
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
        nodes = topo.nodes()
        if self.kind == "sweep":
            return SweepAttack(
                nodes,
                start=self.start,
                dwell=self.dwell,
                victims=min(self.victims, len(nodes)),
                rng=rng,
            ).plan()
        if self.kind == "region":
            return RegionAttack(
                Router(topo),
                self.epicentre,
                radius=self.radius,
                start=self.start,
                duration=self.duration,
            ).plan()
        return RandomFailures(
            nodes, horizon=horizon, mtbf=self.mtbf, mttr=self.mttr, rng=rng
        ).plan()


class SweepAttack:
    """Attacker compromises one node at a time, moving every ``dwell`` s.

    The victim order is a seeded random permutation (an attacker probing
    for the critical component — exactly the adversary location-elusive
    migration is designed to defeat).
    """

    def __init__(
        self,
        nodes: Sequence[int],
        *,
        start: float,
        dwell: float,
        victims: int,
        rng: np.random.Generator,
        recover: bool = True,
    ) -> None:
        if dwell <= 0 or victims < 1:
            raise ValueError("need dwell > 0 and victims >= 1")
        if victims > len(nodes):
            raise ValueError("more victims than nodes")
        self.start = start
        self.dwell = dwell
        order = list(rng.permutation(list(nodes))[:victims])
        self.victims = [int(v) for v in order]
        self.recover = recover

    def plan(self) -> AttackPlan:
        transitions: List[Tuple[float, str, int]] = []
        t = self.start
        for victim in self.victims:
            transitions.append((t, "compromise", victim))
            if self.recover:
                transitions.append((t + self.dwell, "recover", victim))
            t += self.dwell
        return AttackPlan(tuple(transitions))


class RegionAttack:
    """Simultaneously take down every node within ``radius`` hops of the
    epicentre for ``duration`` seconds."""

    def __init__(
        self,
        router: Router,
        epicentre: int,
        *,
        radius: int,
        start: float,
        duration: float,
    ) -> None:
        if radius < 0 or duration <= 0:
            raise ValueError("need radius >= 0 and duration > 0")
        self.start = start
        self.duration = duration
        self.victims = sorted(set(router.within(epicentre, radius)) | {epicentre})

    def plan(self) -> AttackPlan:
        transitions: List[Tuple[float, str, int]] = []
        for victim in self.victims:
            transitions.append((self.start, "compromise", victim))
            transitions.append((self.start + self.duration, "recover", victim))
        return AttackPlan(tuple(transitions))


class RandomFailures:
    """Memoryless crash/recover churn over the horizon.

    Each node independently crashes at rate ``mtbf⁻¹`` and recovers after
    an exponential repair time of mean ``mttr`` — classic availability
    churn, stressing the protocols' statelessness claim.
    """

    def __init__(
        self,
        nodes: Sequence[int],
        *,
        horizon: float,
        mtbf: float,
        mttr: float,
        rng: np.random.Generator,
    ) -> None:
        if mtbf <= 0 or mttr <= 0 or horizon <= 0:
            raise ValueError("mtbf, mttr, horizon must be positive")
        self.nodes = list(nodes)
        self.horizon = horizon
        self.mtbf = mtbf
        self.mttr = mttr
        self.rng = rng

    def plan(self) -> AttackPlan:
        transitions: List[Tuple[float, str, int]] = []
        for node in self.nodes:
            t = float(self.rng.exponential(self.mtbf))
            while t < self.horizon:
                transitions.append((t, "crash", int(node)))
                repair = float(self.rng.exponential(self.mttr))
                if t + repair >= self.horizon:
                    break
                transitions.append((t + repair, "recover", int(node)))
                t = t + repair + float(self.rng.exponential(self.mtbf))
        transitions.sort(key=lambda x: (x[0], x[2]))
        return AttackPlan(tuple(transitions))
