"""Heterogeneous fleet distributions.

The paper's Section 5 fleet is perfectly uniform: every host has the same
100-second queue, a unit-rate CPU and the same 0.9 threshold.  This
module adds the missing axis: per-node **capacity**, **speed**,
**threshold** and consumable-**resource-scale** distributions, described
declaratively (so they digest into the run store) and materialised
per-node from *named* RNG substreams.

Determinism contract
--------------------
Node ``n``'s parameters are drawn from the kernel stream
``fleet[n]`` — one stream per node, seeded purely by ``(root seed,
stream name)`` via :func:`repro.sim.rng.derive_seed`.  The draws are
therefore identical:

* serial vs parallel execution (no shared-generator ordering),
* scalar vs vectorized simulation loops,
* t=0 nodes vs churn joiners (a node joining mid-run gets exactly the
  parameters it would have had at build time),
* sim vs live runtime (both are assembled by
  :func:`repro.experiments.runner.assemble`, whose per-node builder is
  the only caller of :func:`node_params`).

``fleet=None`` on the experiment config skips this module entirely —
the uniform paper fleet touches no new RNG stream and stays
byte-identical to the pre-fleet traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

__all__ = ["FleetSpec", "FleetConfig", "NodeParams", "draw_value", "node_params", "fleet_summary"]

_DISTS = ("fixed", "uniform", "lognormal", "choice")


@dataclass(frozen=True)
class FleetSpec:
    """One per-node scalar distribution, declaratively.

    ``dist`` ∈ ``fixed`` (args: value), ``uniform`` (args: low, high),
    ``lognormal`` (args: mean, sigma of the underlying normal), and
    ``choice`` (args: the discrete values, picked uniformly).  Frozen and
    built from plain floats so it canonicalises into the run-store digest
    unchanged.
    """

    dist: str
    args: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.dist not in _DISTS:
            raise ValueError(f"unknown fleet dist {self.dist!r}; known: {_DISTS}")
        if self.dist == "fixed" and len(self.args) != 1:
            raise ValueError("fixed takes exactly one arg (the value)")
        if self.dist == "uniform":
            if len(self.args) != 2 or self.args[0] > self.args[1]:
                raise ValueError("uniform takes (low, high) with low <= high")
        if self.dist == "lognormal" and len(self.args) != 2:
            raise ValueError("lognormal takes (mean, sigma)")
        if self.dist == "choice" and not self.args:
            raise ValueError("choice needs at least one value")


def draw_value(spec: FleetSpec, rng) -> float:
    """One draw from ``spec`` using ``rng`` (a ``numpy`` Generator)."""
    if spec.dist == "fixed":
        return float(spec.args[0])
    if spec.dist == "uniform":
        low, high = spec.args
        return float(low + (high - low) * rng.random())
    if spec.dist == "lognormal":
        mean, sigma = spec.args
        return float(math.exp(mean + sigma * rng.standard_normal()))
    # choice
    return float(spec.args[int(rng.integers(len(spec.args)))])


@dataclass(frozen=True)
class FleetConfig:
    """The heterogeneous-fleet axis of an experiment.

    Every field is optional; ``None`` keeps the homogeneous default for
    that attribute (the experiment's ``queue_capacity``, unit speed, the
    protocol threshold, unscaled pools).  ``name`` labels the fleet in
    run params and inspector summaries.
    """

    name: str = "custom"
    capacity: Optional[FleetSpec] = None
    speed: Optional[FleetSpec] = None
    threshold: Optional[FleetSpec] = None
    resource_scale: Optional[FleetSpec] = None

    @classmethod
    def heterogeneous(cls) -> "FleetConfig":
        """A representative mixed fleet: capacities 60–140s, speeds
        0.5×–2× in discrete grades, thresholds around the paper's 0.9."""
        return cls(
            name="heterogeneous",
            capacity=FleetSpec("uniform", (60.0, 140.0)),
            speed=FleetSpec("choice", (0.5, 1.0, 1.0, 2.0)),
            threshold=FleetSpec("uniform", (0.85, 0.95)),
        )


@dataclass(frozen=True)
class NodeParams:
    """Materialised per-node parameters (post-draw, post-clamp)."""

    capacity: float
    speed: float
    threshold: float
    resource_scale: float


def node_params(
    fleet: Optional[FleetConfig],
    streams,
    node_id: int,
    *,
    default_capacity: float,
    default_threshold: float,
) -> NodeParams:
    """Draw node ``node_id``'s parameters from its ``fleet[n]`` stream.

    The draw order (capacity, speed, threshold, resource_scale) is fixed
    — part of the determinism contract — and values are clamped to sane
    floors so a wide distribution cannot produce a zero-capacity or
    always-unavailable node.  With ``fleet=None`` no stream is touched.
    """
    if fleet is None:
        return NodeParams(default_capacity, 1.0, default_threshold, 1.0)
    rng = streams.stream(f"fleet[{node_id}]")
    capacity = default_capacity
    speed = 1.0
    threshold = default_threshold
    scale = 1.0
    if fleet.capacity is not None:
        capacity = max(1e-3, draw_value(fleet.capacity, rng))
    if fleet.speed is not None:
        speed = max(1e-3, draw_value(fleet.speed, rng))
    if fleet.threshold is not None:
        threshold = min(0.999, max(1e-3, draw_value(fleet.threshold, rng)))
    if fleet.resource_scale is not None:
        scale = max(0.0, draw_value(fleet.resource_scale, rng))
    return NodeParams(capacity, speed, threshold, scale)


def fleet_summary(params: Iterable[NodeParams]) -> Dict[str, float]:
    """Spread diagnostics over the materialised fleet for run extras.

    The coefficient of variation (std/mean) of capacity and speed is the
    single-number "how heterogeneous was this fleet" answer the
    inspector shows; a uniform fleet reports 0.0 on both.
    """
    rows = list(params)
    if not rows:
        return {}

    def stats(values) -> Tuple[float, float]:
        n = len(values)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / n
        return mean, (math.sqrt(var) / mean if mean else 0.0)

    cap_mean, cap_cv = stats([p.capacity for p in rows])
    speed_mean, speed_cv = stats([p.speed for p in rows])
    return {
        "fleet_capacity_mean": cap_mean,
        "fleet_capacity_cv": cap_cv,
        "fleet_speed_mean": speed_mean,
        "fleet_speed_cv": speed_cv,
    }
