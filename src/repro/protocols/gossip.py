"""Gossip / anti-entropy baseline (a modern comparison point).

Post-2003, availability dissemination converged on epidemic membership
protocols (SWIM and its descendants: Serf, memberlist, Consul).  This
agent implements the push-pull anti-entropy core of that family so
REALTOR can be measured against it:

* every ``gossip_interval`` seconds each node picks one uniformly random
  *neighbour* and sends it a digest of its entire view plus its own
  fresh state (``GOSSIP`` message, unicast);
* the receiver merges the digest (newest-timestamp-wins, exactly the
  view's semantics) and replies with its own digest (the pull half), so
  one exchange reconciles both parties;
* information spreads epidemically: O(log N) rounds to reach everyone,
  with per-round cost O(N) unicasts — no floods at all.

Compared with REALTOR, gossip is load-oblivious (it disseminates at the
same rate whether anyone needs resources or not — push-like in Figure 6
terms) but its per-message cost is a single unicast, not a flood.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..runtime.api import Delivery
from .base import DiscoveryAgent, ProtocolContext

__all__ = ["GossipAgent", "KIND_GOSSIP", "KIND_GOSSIP_ACK"]

KIND_GOSSIP = "GOSSIP"
KIND_GOSSIP_ACK = "GOSSIP_ACK"

#: (node, availability, usage, available, timestamp)
DigestEntry = Tuple[int, float, float, bool, float]


@dataclass(frozen=True)
class Digest:
    """A snapshot of everything the sender believes."""

    origin: int
    entries: Tuple[DigestEntry, ...]


class GossipAgent(DiscoveryAgent):
    """Push-pull anti-entropy over the neighbour graph."""

    #: no row part, but its digests fill the view, so it is primed like a row
    learns = True

    def __init__(self, ctx: ProtocolContext, *parts: str, interval: float = 1.0) -> None:
        """``interval`` is the gossip period in seconds (memberlist's
        default is 1 s)."""
        super().__init__(ctx, *parts)
        self.interval = interval
        if self.interval <= 0:
            raise ValueError("gossip interval must be positive")
        self.rounds = 0

    # Lifecycle ------------------------------------------------------------

    def start(self) -> None:
        super().start()
        self.transport.register(self.node_id, KIND_GOSSIP, self._on_gossip)
        self.transport.register(self.node_id, KIND_GOSSIP_ACK, self._on_ack)
        self._timer = self._every(self.interval, self._round)

    # Rounds ------------------------------------------------------------------

    def _peers(self) -> List[int]:
        if self.config.scope == "network":
            return [n for n in self.ctx.all_nodes if n != self.node_id]
        return self.transport.topo.neighbors(self.node_id)

    def _round(self) -> None:
        if not self.safe:
            return
        peers = self._peers()
        if not peers:
            return
        rng = self.sim.streams.stream(f"gossip[{self.node_id}]")
        target = int(peers[int(rng.integers(len(peers)))])
        self.rounds += 1
        self.transport.unicast(
            self.node_id, target, KIND_GOSSIP, self._digest()
        )

    def _digest(self) -> Digest:
        snap = self.host.snapshot()
        entries: List[DigestEntry] = [
            (
                self.node_id,
                snap.headroom,
                snap.usage,
                snap.available and self.safe,
                self.sim.now,
            )
        ]
        for entry in self.view.entries():
            entries.append(
                (
                    entry.node,
                    entry.availability,
                    entry.usage,
                    entry.available,
                    entry.timestamp,
                )
            )
        return Digest(origin=self.node_id, entries=tuple(entries))

    # Merging ----------------------------------------------------------------

    def _merge(self, digest: Digest) -> None:
        for node, availability, usage, available, ts in digest.entries:
            self.view.update(node, availability, usage, available, ts)

    def _on_gossip(self, delivery: Delivery) -> None:
        digest: Digest = delivery.payload
        self._merge(digest)
        # the pull half: reply with our own digest so both sides converge
        self.transport.unicast(
            self.node_id, digest.origin, KIND_GOSSIP_ACK, self._digest()
        )

    def _on_ack(self, delivery: Delivery) -> None:
        self._merge(delivery.payload)

