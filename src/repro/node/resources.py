"""Multi-resource model.

The paper simulates a single resource (CPU backlog) but notes that "more
general resource scenarios such as network bandwidth, current security
level, etc., would give similar results" (footnote 3).  The extension
experiments exercise exactly that: each host owns a :class:`ResourcePool`
of named capacities; tasks may declare extra demands; PLEDGE messages may
carry the full availability vector.

Resources come in two flavours:

* **consumable** (bandwidth, memory): allocation subtracts from capacity
  for the task's residency and is released on completion;
* **level** (security level): a host *has* a level, a task *requires* a
  minimum; nothing is consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Mapping

__all__ = ["ResourceKind", "ResourceSpec", "ResourcePool", "CPU", "BANDWIDTH", "SECURITY"]

CPU = "cpu"
BANDWIDTH = "bandwidth"
SECURITY = "security"


class ResourceKind(str, Enum):
    CONSUMABLE = "consumable"
    LEVEL = "level"


@dataclass(frozen=True)
class ResourceSpec:
    """Declaration of one resource a host offers."""

    name: str
    capacity: float
    kind: ResourceKind = ResourceKind.CONSUMABLE

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"capacity must be non-negative: {self.name}")


class InsufficientResources(RuntimeError):
    """Raised when an allocation request cannot be satisfied."""


@dataclass
class ResourcePool:
    """Tracks allocations against a set of :class:`ResourceSpec` s.

    The pool is strict: allocating an undeclared resource raises, and
    over-release raises — silent accounting drift is how simulations lie.
    """

    specs: Dict[str, ResourceSpec] = field(default_factory=dict)
    _used: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def of(cls, **capacities: float) -> "ResourcePool":
        """Shorthand: ``ResourcePool.of(bandwidth=100.0)`` (all consumable)."""
        pool = cls()
        for name, cap in capacities.items():
            pool.declare(ResourceSpec(name, cap))
        return pool

    def declare(self, spec: ResourceSpec) -> None:
        if spec.name in self.specs:
            raise ValueError(f"resource already declared: {spec.name}")
        self.specs[spec.name] = spec
        self._used[spec.name] = 0.0

    # Queries ---------------------------------------------------------------

    def capacity(self, name: str) -> float:
        return self._spec(name).capacity

    def used(self, name: str) -> float:
        return self._used[self._spec(name).name]

    def available(self, name: str) -> float:
        spec = self._spec(name)
        if spec.kind is ResourceKind.LEVEL:
            return spec.capacity
        return spec.capacity - self._used[name]

    def availability_vector(self) -> Dict[str, float]:
        """Name → available amount (what a PLEDGE advertises)."""
        return {name: self.available(name) for name in self.specs}

    def fits(self, demand: Mapping[str, float]) -> bool:
        """Whether ``demand`` can be satisfied right now.

        Level resources are satisfied when the host's level >= demand;
        consumable when available >= demand.  Demands on undeclared
        resources do not fit (a host without a GPU cannot run a GPU task).
        """
        for name, amount in demand.items():
            spec = self.specs.get(name)
            if spec is None:
                return False
            if spec.kind is ResourceKind.LEVEL:
                if spec.capacity < amount:
                    return False
            elif self.available(name) < amount:
                return False
        return True

    # Mutation -----------------------------------------------------------------

    def allocate(self, demand: Mapping[str, float]) -> None:
        """Atomically allocate ``demand`` or raise without side effects."""
        if not self.fits(demand):
            raise InsufficientResources(f"cannot satisfy {dict(demand)!r}")
        for name, amount in demand.items():
            if self.specs[name].kind is ResourceKind.CONSUMABLE:
                self._used[name] += amount

    def release(self, demand: Mapping[str, float]) -> None:
        for name, amount in demand.items():
            spec = self._spec(name)
            if spec.kind is ResourceKind.LEVEL:
                continue
            new = self._used[name] - amount
            if new < -1e-9:
                raise RuntimeError(
                    f"over-release of {name}: used={self._used[name]}, releasing {amount}"
                )
            self._used[name] = max(new, 0.0)

    def _spec(self, name: str) -> ResourceSpec:
        spec = self.specs.get(name)
        if spec is None:
            raise KeyError(f"undeclared resource: {name}")
        return spec

    def __contains__(self, name: str) -> bool:
        return name in self.specs
