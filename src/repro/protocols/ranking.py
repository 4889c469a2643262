"""Pluggable candidate-ranking policies for the resource view.

The paper's REALTOR always migrates to the peer with the most *believed
headroom*.  That is one policy among several: Dubey & Tokekar's
efficient-peer identification ranks peers by observed responsiveness and
reliability instead, arguing that the "biggest believed queue" is often
the stalest belief.  This module extracts ranking from
:meth:`repro.protocols.view.ResourceView.candidates` into
:data:`RANKINGS`, a table of :class:`RankingPolicy` classes, so
experiments can swap the ordering without touching the belief store or
the migration path.

Observations
------------
Policies beyond ``headroom`` consume :class:`PeerStats` — a per-peer
record of observations the view accumulates *only when the active policy
asks for them* (``needs_stats``):

* **pledge round-trip latency** — fed by the pull-family agents from
  ``sim.now - pledge.sent_at`` when a PLEDGE arrives;
* **usage trajectory** — an exponentially-weighted slope of the believed
  usage fraction, updated on every view refresh;
* **admission reliability** — grant / refusal / timeout counts fed by the
  migration coordinator from each negotiation's reason.

The default ``headroom`` policy ignores all of this and reproduces the
pre-seam ordering bit-for-bit: sort by most headroom, then freshest, then
lowest node id.  With ``needs_stats`` false the observation feeds are
no-ops, so the default path allocates nothing new.

Determinism contract
--------------------
Every policy must order candidates *totally* — the final sort component
is always the node id — so equal-scoring peers rank identically run after
run and golden traces stay byte-stable under any policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (view imports us)
    from .view import ViewEntry

__all__ = [
    "PeerStats",
    "RankingPolicy",
    "HeadroomPolicy",
    "LatencyPolicy",
    "ReliabilityPolicy",
    "CompositePolicy",
    "RANKINGS",
    "make_ranking",
    "ranking_names",
]

#: EWMA smoothing factor for latency and usage-trend observations.
_EWMA_ALPHA = 0.3


@dataclass
class PeerStats:
    """Accumulated observations about one remote peer.

    Lives in the view's side-table keyed by node id and *survives* entry
    eviction/forget — reliability history is about the peer, not about
    any single belief snapshot.
    """

    node: int
    #: EWMA of observed pledge round-trip latencies (None until observed)
    latency_ewma: float = float("nan")
    latency_samples: int = 0
    #: last believed usage fraction and the EWMA of its per-update delta
    last_usage: float = float("nan")
    usage_trend: float = 0.0
    usage_samples: int = 0
    #: admission outcomes observed by the migration coordinator
    grants: int = 0
    refusals: int = 0
    timeouts: int = 0

    # Feeds ---------------------------------------------------------------

    def observe_latency(self, rtt: float) -> None:
        if rtt < 0.0:
            rtt = 0.0
        if self.latency_samples == 0:
            self.latency_ewma = rtt
        else:
            self.latency_ewma += _EWMA_ALPHA * (rtt - self.latency_ewma)
        self.latency_samples += 1

    def observe_usage(self, usage: float) -> None:
        if self.usage_samples > 0:
            delta = usage - self.last_usage
            self.usage_trend += _EWMA_ALPHA * (delta - self.usage_trend)
        self.last_usage = usage
        self.usage_samples += 1

    def observe_outcome(self, reason: str) -> None:
        """Record one admission outcome (a negotiation callback's reason)."""
        if reason == "granted":
            self.grants += 1
        elif reason == "refused":
            self.refusals += 1
        else:  # "timeout" / "unreachable" — the peer silently failed us
            self.timeouts += 1

    # Derived -------------------------------------------------------------

    @property
    def outcomes(self) -> int:
        return self.grants + self.refusals + self.timeouts

    @property
    def reliability(self) -> float:
        """Laplace-smoothed grant rate (prior 0.5 with no observations)."""
        return (self.grants + 1.0) / (self.outcomes + 2.0)

    @property
    def has_latency(self) -> bool:
        return self.latency_samples > 0


class RankingPolicy:
    """Orders filtered view entries into migration-candidate preference.

    ``order`` receives the already-filtered candidate pool (believed
    available, fits the task, not excluded), the current time, and the
    view's stats side-table; it must sort the list in place and return
    it.  ``needs_stats`` tells the view whether to maintain the
    side-table at all — policies that ignore observations leave it off
    so the default path stays allocation-free.
    """

    name: str = "?"
    needs_stats: bool = False

    def order(
        self,
        pool: List["ViewEntry"],
        now: float,
        stats: Dict[int, PeerStats],
    ) -> List["ViewEntry"]:
        raise NotImplementedError


class HeadroomPolicy(RankingPolicy):
    """The paper's ranking: most believed headroom, freshest, lowest id.

    This is byte-identical to the pre-seam hard-coded sort in
    ``ResourceView.candidates`` — the golden-trace tests pin it.
    """

    name = "headroom"
    needs_stats = False

    def order(self, pool, now, stats):
        pool.sort(key=lambda e: (-e.availability, -e.timestamp, e.node))
        return pool


class LatencyPolicy(RankingPolicy):
    """Prefer peers with the lowest observed pledge round-trip latency.

    Peers never observed rank after all observed peers (their latency is
    unknown, not zero); ties fall back to the headroom ordering.
    """

    name = "latency"
    needs_stats = True

    def order(self, pool, now, stats):
        def key(e: "ViewEntry") -> Tuple:
            st = stats.get(e.node)
            if st is not None and st.has_latency:
                return (0, st.latency_ewma, -e.availability, -e.timestamp, e.node)
            return (1, 0.0, -e.availability, -e.timestamp, e.node)

        pool.sort(key=key)
        return pool


class ReliabilityPolicy(RankingPolicy):
    """Prefer peers whose admissions historically succeed.

    Reliability is the Laplace-smoothed grant rate over every negotiated
    outcome (grants vs refusals vs silent timeouts); unobserved peers get
    the 0.5 prior, so a peer must actually refuse or time out to rank
    below fresh unknowns.  Ties fall back to the headroom ordering.
    """

    name = "reliability"
    needs_stats = True

    def order(self, pool, now, stats):
        def key(e: "ViewEntry") -> Tuple:
            st = stats.get(e.node)
            rel = st.reliability if st is not None else 0.5
            return (-rel, -e.availability, -e.timestamp, e.node)

        pool.sort(key=key)
        return pool


class CompositePolicy(RankingPolicy):
    """Dubey-Tokekar-style efficient-peer score.

    A weighted blend of the signals an efficient peer exhibits: plenty of
    headroom (normalised against the best in the current pool), a history
    of granting admissions, fast pledge round-trips, fresh information,
    and a flat-or-falling usage trajectory.  Weights sum to 1 before the
    trend penalty; all terms are plain float arithmetic on accumulated
    state, so the score — and therefore the ordering — is deterministic
    for a deterministic run.
    """

    name = "composite"
    needs_stats = True

    W_HEADROOM = 0.40
    W_RELIABILITY = 0.25
    W_LATENCY = 0.20
    W_FRESHNESS = 0.15
    W_TREND = 0.10

    def order(self, pool, now, stats):
        if not pool:
            return pool
        max_avail = max(e.availability for e in pool)
        if max_avail <= 0.0:
            max_avail = 1.0

        def score(e: "ViewEntry") -> float:
            st = stats.get(e.node)
            headroom = e.availability / max_avail
            if st is not None:
                rel = st.reliability
                lat = 1.0 / (1.0 + st.latency_ewma) if st.has_latency else 0.5
                trend = st.usage_trend
                if trend > 1.0:
                    trend = 1.0
                elif trend < -1.0:
                    trend = -1.0
            else:
                rel, lat, trend = 0.5, 0.5, 0.0
            fresh = 1.0 / (1.0 + e.staleness(now))
            return (
                self.W_HEADROOM * headroom
                + self.W_RELIABILITY * rel
                + self.W_LATENCY * lat
                + self.W_FRESHNESS * fresh
                - self.W_TREND * trend
            )

        pool.sort(key=lambda e: (-score(e), e.node))
        return pool


#: every ranking policy by the name ``ProtocolConfig.ranking_policy`` holds
RANKINGS: Dict[str, Type[RankingPolicy]] = {
    policy.name: policy
    for policy in (HeadroomPolicy, LatencyPolicy, ReliabilityPolicy, CompositePolicy)
}


def make_ranking(name: str) -> RankingPolicy:
    """Instantiate the policy named ``name``.

    Raises ``ValueError`` with the known names on a typo so config errors
    surface at build time, not mid-run.
    """
    try:
        policy = RANKINGS[name]
    except KeyError:
        raise ValueError(
            f"unknown ranking policy {name!r}; known: {ranking_names()}"
        ) from None
    return policy()


def ranking_names() -> List[str]:
    return sorted(RANKINGS)
