"""Agile Object Naming Service.

Section 3: "the naming service is updated to reflect the new location of
the component."  A logically centralised (replicated in practice)
name → location map.  Lookups of recently moved components may observe
the *old* binding until the update propagates — the service models a
configurable propagation delay, and stale lookups are counted (they are
the "location elusiveness" the paper wants: a tracker using the naming
service keeps chasing stale bindings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.api import SchedulerAPI

__all__ = ["NamingService", "Binding"]


@dataclass(frozen=True)
class Binding:
    """One name → host binding with its registration time."""

    name: str
    host: int
    since: float


class NamingService:
    """Name → host registry with propagation delay.

    A binding lives as long as its component: :meth:`register` creates or
    moves it, :meth:`unregister` ends it and keeps nothing of the name.

    Parameters
    ----------
    sim:
        Simulation kernel.
    propagation_delay:
        Seconds before an update becomes visible to lookups (0 = instant).
    """

    def __init__(self, sim: "SchedulerAPI", propagation_delay: float = 0.0) -> None:
        if propagation_delay < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.propagation_delay = float(propagation_delay)
        self._visible: Dict[str, Binding] = {}
        #: ground truth: the newest registered binding of every live name
        self._newest: Dict[str, Binding] = {}
        self.lookups = 0
        self.stale_lookups = 0
        self.updates = 0

    # Registration -----------------------------------------------------------

    def register(self, name: str, host: int) -> None:
        """Bind ``name`` to ``host``; visible after the propagation delay."""
        binding = self._newest[name] = Binding(name, host, self.sim.now)
        self.updates += 1
        if self.propagation_delay == 0.0:
            self._visible[name] = binding
        else:
            self.sim.after(self.propagation_delay, self._publish, binding)

    def _publish(self, binding: Binding) -> None:
        if binding.name not in self._newest:
            return  # unregistered while the update was still propagating
        cur = self._visible.get(binding.name)
        if cur is None or cur.since <= binding.since:
            self._visible[binding.name] = binding

    def unregister(self, name: str) -> None:
        """Remove a binding (component destroyed)."""
        self._visible.pop(name, None)
        self._newest.pop(name, None)

    # Lookup ----------------------------------------------------------------

    def lookup(self, name: str) -> Optional[int]:
        """Currently *visible* host for ``name`` (may be stale), or None."""
        self.lookups += 1
        binding = self._visible.get(name)
        if binding is None:
            return None
        true_host = self.true_location(name)
        if true_host is not None and true_host != binding.host:
            self.stale_lookups += 1
        return binding.host

    def true_location(self, name: str) -> Optional[int]:
        """Ground truth: the newest registered binding (tests/metrics)."""
        newest = self._newest.get(name)
        return newest.host if newest is not None else None

    def bindings(self) -> List[Tuple[str, int]]:
        """All visible (name, host) pairs, sorted by name."""
        return sorted((b.name, b.host) for b in self._visible.values())

    def components_on(self, host: int) -> List[str]:
        """Visible component names bound to ``host``."""
        return sorted(b.name for b in self._visible.values() if b.host == host)

    @property
    def staleness_rate(self) -> float:
        return self.stale_lookups / self.lookups if self.lookups else 0.0

    def __len__(self) -> int:
        return len(self._visible)
