"""The per-node resource view.

Every discovery agent maintains a *view*: its (possibly stale) belief
about other nodes' availability, fed exclusively by the messages its
protocol actually delivered.  Candidate selection for migration reads
only this view — never ground truth — which is precisely what makes the
push/pull timeliness trade-off of Figure 8 observable: "in pull-based
approach, information is collected before migration request rises, the
information can be out-of-dated rather easily."

Candidate *ordering* is delegated to a pluggable
:class:`~repro.protocols.ranking.RankingPolicy` (default: the paper's
headroom ranking, bit-identical to the pre-seam behaviour).  Policies
that declare ``needs_stats`` turn on a per-peer observation side-table
(:class:`~repro.protocols.ranking.PeerStats`) fed by three sources:
pledge round-trip latencies (:meth:`ResourceView.observe_latency`),
admission outcomes from the migration coordinator
(:meth:`ResourceView.observe_outcome`), and the usage trajectory sampled
on every :meth:`ResourceView.update`.  With the default policy all three
feeds are no-ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .ranking import PeerStats, RankingPolicy, make_ranking

__all__ = ["ViewEntry", "ResourceView"]


@dataclass(slots=True)
class ViewEntry:
    """Belief about one remote node.

    Slotted: one is allocated on every view update (40 000 while a
    10 000-node system is built), and without a ``__dict__`` each is
    about 50 bytes smaller.
    """

    node: int
    availability: float      # believed queue headroom in seconds
    usage: float             # believed usage fraction
    available: bool          # believed below-threshold flag
    timestamp: float         # when the information was generated
    #: accumulated per-peer observations, shared with the view's
    #: side-table; ``None`` unless the active ranking policy needs them
    stats: Optional[PeerStats] = None

    def staleness(self, now: float) -> float:
        return max(0.0, now - self.timestamp)


class ResourceView:
    """Belief store with policy-ranked candidates.

    A belief is kept until newer information about the same node
    overwrites it (the paper's behaviour): the view never expires one.

    Parameters
    ----------
    owner:
        The node this view belongs to (never a candidate for itself).
    policy:
        The :class:`~repro.protocols.ranking.RankingPolicy` ordering
        candidates.  ``None`` selects the default ``headroom`` policy
        (the paper's ranking, bit-identical to pre-seam behaviour).
    """

    def __init__(
        self,
        owner: int,
        policy: Optional[RankingPolicy] = None,
    ) -> None:
        self.owner = owner
        self.policy = policy if policy is not None else make_ranking("headroom")
        #: observation side-table maintenance is gated on the policy so
        #: the default headroom path allocates nothing new
        self.track_stats = self.policy.needs_stats
        self._entries: Dict[int, ViewEntry] = {}
        #: per-peer observations; keyed by node id and deliberately kept
        #: across forget — reliability history outlives any one belief
        #: snapshot
        self._stats: Dict[int, PeerStats] = {}
        self.updates = 0

    # Updates ---------------------------------------------------------------

    def update(
        self,
        node: int,
        availability: float,
        usage: float,
        available: bool,
        timestamp: float,
    ) -> None:
        """Install newer information (older timestamps never overwrite)."""
        if node == self.owner:
            return
        cur = self._entries.get(node)
        if cur is not None and cur.timestamp > timestamp:
            return
        entry = ViewEntry(node, availability, usage, available, timestamp)
        if self.track_stats:
            stats = self._stats_for(node)
            stats.observe_usage(usage)
            entry.stats = stats
        self._entries[node] = entry
        self.updates += 1

    def observe_latency(self, node: int, rtt: float) -> None:
        """Record one pledge round-trip latency (no-op unless tracked)."""
        if not self.track_stats or node == self.owner:
            return
        self._stats_for(node).observe_latency(rtt)

    def observe_outcome(self, node: int, reason: str) -> None:
        """Record one admission outcome — the reason an
        ``AdmissionControl.negotiate`` callback receives
        (``granted``/``refused``/``timeout``/``unreachable``).
        No-op unless the active policy tracks stats."""
        if not self.track_stats or node == self.owner:
            return
        self._stats_for(node).observe_outcome(reason)

    def _stats_for(self, node: int) -> PeerStats:
        stats = self._stats.get(node)
        if stats is None:
            stats = PeerStats(node)
            self._stats[node] = stats
        return stats

    def stats_for(self, node: int) -> Optional[PeerStats]:
        """The accumulated observations for ``node`` (read-only use)."""
        return self._stats.get(node)

    def forget(self, node: int) -> None:
        self._entries.pop(node, None)

    def clear(self) -> None:
        self._entries.clear()

    # Queries ------------------------------------------------------------------

    def get(self, node: int) -> Optional[ViewEntry]:
        return self._entries.get(node)

    def known_nodes(self) -> List[int]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node: int) -> bool:
        return node in self._entries

    def entries(self) -> List[ViewEntry]:
        """Every belief held, in insertion order."""
        return list(self._entries.values())

    def candidates(
        self,
        now: float,
        *,
        min_availability: float = 0.0,
        exclude: Iterable[int] = (),
        limit: Optional[int] = None,
    ) -> List[ViewEntry]:
        """Ranked candidate hosts for a migration.

        Filtering is fixed — believed-available entries with at least
        ``min_availability`` headroom, excluding ``exclude`` and the
        owner — but the *ordering* belongs to the active ranking policy.
        The default ``headroom`` policy ranks most-headroom first, then
        freshest, then lowest node id (determinism).
        """
        banned = set(exclude)
        banned.add(self.owner)
        pool = [
            e
            for e in self._entries.values()
            if e.node not in banned
            and e.available
            and e.availability >= min_availability
        ]
        pool = self.policy.order(pool, now, self._stats)
        if limit is not None:
            pool = pool[:limit]
        return pool

    def best(
        self,
        now: float,
        *,
        min_availability: float = 0.0,
        exclude: Iterable[int] = (),
    ) -> Optional[ViewEntry]:
        """The single best candidate (the paper's one-shot target)."""
        ranked = self.candidates(
            now, min_availability=min_availability, exclude=exclude, limit=1
        )
        return ranked[0] if ranked else None

    def mean_staleness(self, now: float) -> float:
        """Average information age — the timeliness diagnostic of Fig 8."""
        if not self._entries:
            return 0.0
        return sum(e.staleness(now) for e in self._entries.values()) / len(self._entries)
