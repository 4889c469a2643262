"""The discovery agent, built from the parts of its protocol row.

The paper defines its protocols as combinations of push and pull,
periodic and aperiodic (the taxonomy of [Maheswaran 2001]), and REALTOR
as "adaptive PUSH + adaptive PULL combined".  So one
:class:`DiscoveryAgent` is built from three parts, named by a row of
:data:`repro.protocols.registry.PROTOCOLS`:

* **pull** — ``none``; ``every``: a HELP on every arrival that would push
  usage over the threshold (Pull-.9); ``adaptive``: the same, under
  Algorithm H's adaptive interval (Pull-100, REALTOR); ``window``:
  Algorithm H frozen at Upper_limit (the fixed time window);
* **push** — ``none``; ``periodic``: an ADV flood every push_interval
  (Push-1); ``crossing``: an ADV flood on each threshold crossing, in
  either direction (Push-.9);
* **respond** — ``none``; ``pledge``: Algorithm P trigger 1, one PLEDGE
  per HELP while below the threshold; ``community``: trigger 1 with
  community soft state, plus trigger 2, a PLEDGE to every joined
  community on each threshold crossing (REALTOR).

It holds only the
state its parts need (``help``, ``pledges``, ``community`` and
``memberships`` are ``None`` otherwise) and each handler is one body
branching on it.  The runner and the migration layer see one interface:

* :meth:`DiscoveryAgent.start` — register transport handlers, start timers;
* :meth:`DiscoveryAgent.notify_task_arrival` — the pull-side trigger,
  called by the runner on every arrival *before* placement is attempted;
* :meth:`DiscoveryAgent.candidates` — ranked migration targets from the
  agent's (possibly stale) :class:`~repro.protocols.view.ResourceView`.

Agents are runtime-agnostic: everything they need from their
environment is the seam re-exported here from :mod:`repro.runtime.api`
— a :class:`Clock`/:class:`SchedulerAPI` for time and timers and a
:class:`TransportAPI` for messaging.  Both the discrete-event simulator
and the live asyncio runtime (:mod:`repro.live`) implement it, so the
exact same agent code drives the published-figure simulations and a
deployed service; the import-isolation test pins that importing this
package never pulls in ``repro.sim.kernel``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from ..core.algorithm_h import HelpScheduler
from ..core.algorithm_p import PledgePolicy
from ..core.community import Community, MembershipTable
from ..core.messages import KIND_ADV, KIND_HELP, KIND_PLEDGE, Advertisement, Help, Pledge
from ..node.host import Host
from ..node.task import Task
from ..runtime.api import (
    Clock,
    Delivery,
    PeriodicHandle,
    SchedulerAPI,
    TimerHandle,
    TransportAPI,
)
from .ranking import make_ranking, ranking_names
from .view import ResourceView

__all__ = [
    "ProtocolConfig",
    "ProtocolContext",
    "DiscoveryAgent",
    # the sim/live runtime seam, re-exported for agent implementations
    "Clock",
    "Delivery",
    "PeriodicHandle",
    "SchedulerAPI",
    "TimerHandle",
    "TransportAPI",
]


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunables shared across protocols, defaulted to the paper's values.

    The curve names in Section 5 encode these: ``Pull-.9`` uses
    ``threshold=0.9``; ``Push-1`` uses ``push_interval=1``; ``Pull-100``
    and ``REALTOR-100`` use ``upper_limit=100``.
    """

    #: availability threshold for Algorithms H and P (0.9 in all figures)
    threshold: float = 0.9
    #: pure-PUSH dissemination period in seconds
    push_interval: float = 1.0
    #: Algorithm H: initial HELP interval
    initial_help_interval: float = 1.0
    #: Algorithm H: multiplicative penalty on failure (interval += interval*alpha).
    #: The paper leaves alpha/beta "subject to the local resource manager";
    #: these defaults were calibrated so the published dynamics emerge
    #: (interval pinned at Upper_limit under system overload, released when
    #: resources reappear) — see EXPERIMENTS.md and the A1 ablation.
    alpha: float = 1.5
    #: Algorithm H: multiplicative reward on success (interval -= interval*beta)
    beta: float = 0.2
    #: Algorithm H: Upper_limit on the HELP interval ("100 time units")
    upper_limit: float = 100.0
    #: Algorithm H: response window after a HELP before the penalty applies
    response_timeout: float = 1.0
    #: Algorithm H hardening: re-floods of an unanswered HELP before the
    #: round is conceded (0 = paper behaviour, no retries).  Only useful
    #: with lossy-network impairments; the penalty still applies once per
    #: round.
    help_retry_budget: int = 0
    #: member-side community expiry when no refresh arrives (soft state)
    membership_ttl: float = 200.0
    #: dissemination scope: "neighbors" restricts HELP/ADV delivery to
    #: direct topology neighbours (the paper's Section 5 assumption);
    #: "network" floods the whole overlay.  Message-cost accounting is
    #: identical in both modes (flood = #links), per the paper.
    scope: str = "neighbors"
    #: candidate-ranking policy for every node's resource view; a name
    #: from :func:`repro.protocols.ranking.ranking_names` ("headroom" —
    #: the paper's most-believed-headroom ordering, bit-identical to the
    #: pre-seam behaviour — "latency", "reliability", or the
    #: Dubey-Tokekar-style "composite").  Non-default policies turn on
    #: per-peer observation tracking in the view.
    ranking_policy: str = "headroom"

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0,1)")
        if self.push_interval <= 0 or self.initial_help_interval <= 0:
            raise ValueError("intervals must be positive")
        if self.alpha < 0 or not 0.0 <= self.beta < 1.0:
            raise ValueError("alpha must be >=0, beta in [0,1)")
        if self.upper_limit < self.initial_help_interval:
            raise ValueError("upper_limit below initial interval")
        if self.help_retry_budget < 0:
            raise ValueError("help_retry_budget must be >= 0")
        # Checked here, not first when a realtor agent is built: that may
        # be in a pool worker after the other cells ran, and a row that
        # builds no Algorithm H or membership table would run silently.
        if self.response_timeout <= 0 or self.membership_ttl <= 0:
            raise ValueError("response_timeout and membership_ttl must be positive")
        if self.scope not in ("neighbors", "network"):
            raise ValueError(f"scope must be 'neighbors' or 'network': {self.scope!r}")
        if self.ranking_policy not in ranking_names():
            raise ValueError(
                f"unknown ranking_policy {self.ranking_policy!r}; "
                f"known: {ranking_names()}"
            )

    def with_(self, **kwargs: object) -> "ProtocolConfig":
        """A modified copy (dataclass is frozen)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


@dataclass
class ProtocolContext:
    """Everything a protocol agent needs from its environment."""

    sim: SchedulerAPI
    transport: TransportAPI
    host: Host
    config: ProtocolConfig
    all_nodes: List[int] = field(default_factory=list)
    #: whether this node may currently advertise/pledge availability; a
    #: compromised node can still talk (to evacuate) but must not attract
    #: new work.  Wired to the fault manager by the runner.
    is_safe: Callable[[], bool] = lambda: True

    @property
    def node_id(self) -> int:
        return self.host.node_id


class DiscoveryAgent:
    """One node's discovery protocol: a pull trigger, a push trigger and a
    responder (each ``"none"`` when the row has no such part)."""

    def __init__(
        self,
        ctx: ProtocolContext,
        pull: str = "none",
        push: str = "none",
        respond: str = "none",
    ) -> None:
        self.ctx = ctx
        self.sim = ctx.sim
        self.transport = ctx.transport
        self.host = ctx.host
        cfg = self.config = ctx.config
        self.node_id = ctx.node_id
        self.pull, self.push, self.respond = pull, push, respond
        #: the level every part judges availability by: the HELP trigger,
        #: trigger-1 pledges and the organizer's verdict on a pledge.  It is
        #: the node's own monitor's level, which a heterogeneous fleet draws
        #: per node (``ProtocolConfig.threshold`` otherwise)
        self.threshold = ctx.host.monitor.threshold
        self.view = ResourceView(self.node_id, policy=make_ranking(cfg.ranking_policy))
        self._started = False
        #: the periodic timer of a ``periodic`` push (or a subclass's rounds)
        self._timer: Optional[PeriodicHandle] = None
        #: demand of the latest qualifying arrival: the HELP's urgency field
        #: and the bar for Algorithm H's "a node is found for migration"
        self._pending_demand = 0.0
        #: Algorithm H, for the ``adaptive`` and ``window`` pulls
        self.help: Optional[HelpScheduler] = None
        if pull in ("adaptive", "window"):
            window = pull == "window"
            self.help = HelpScheduler(
                self.sim,
                self._send_help,
                initial_interval=cfg.upper_limit if window else cfg.initial_help_interval,
                alpha=cfg.alpha,
                beta=cfg.beta,
                upper_limit=cfg.upper_limit,
                response_timeout=cfg.response_timeout,
                adaptive=not window,
                max_retries=cfg.help_retry_budget,
                owner=self.node_id,
            )
        #: Algorithm P, for either responder
        self.pledges = None if respond == "none" else PledgePolicy(self.host, self.threshold)
        self.community: Optional[Community] = None
        self.memberships: Optional[MembershipTable] = None
        if respond == "community":
            self.community = Community(member_ttl=cfg.membership_ttl)
            self.memberships = MembershipTable(
                self.node_id, membership_ttl=cfg.membership_ttl
            )
        self.helps_sent = 0  # the ``every`` pull's HELPs (Algorithm H counts its own)

    @property
    def learns(self) -> bool:
        """Whether this agent discovers anything.  The ``none`` row does
        not: it is never primed and never ranks a candidate, even when a
        migration outcome has written to its view."""
        return (self.pull, self.push, self.respond) != ("none", "none", "none")

    # Lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Register message handlers and start timers.  Idempotent guard."""
        if self._started:
            raise RuntimeError(f"agent {self!r} already started")
        self._started = True
        self.transport.register(self.node_id, KIND_HELP, self._on_help)
        self.transport.register(self.node_id, KIND_PLEDGE, self._on_pledge)
        self.transport.register(self.node_id, KIND_ADV, self._on_adv)
        if self.push == "periodic":
            self._timer = self._every(self.config.push_interval, self._advertise)
        if self.push == "crossing" or self.memberships is not None:
            self.host.monitor.on_cross(self._on_cross)

    def _every(self, interval: float, fn: Callable[[], None]) -> PeriodicHandle:
        """This node's periodic timer, phase-staggered by node id so the
        rounds do not all land on the same instant — the paper's hosts are
        likewise unsynchronised.  The offset is deterministic."""
        n = max(len(self.ctx.all_nodes), 1)
        return self.sim.periodic(interval, fn, phase=(self.node_id % n) / n * interval)

    def stop(self) -> None:
        """Tear down timers (node crash / end of run)."""
        if self.help is not None:
            self.help.stop()
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        self._started = False

    # Pull: HELP solicitation ---------------------------------------------

    def notify_task_arrival(self, task: Task) -> None:
        """Arrival gate: a HELP iff usage including ``task`` would exceed
        the threshold — every time (``every``), or once the Algorithm H
        window has passed (``adaptive`` / ``window``)."""
        if self.pull == "none" or not self.would_exceed_threshold(task):
            return
        self._pending_demand = task.size
        if self.help is not None:
            self.help.maybe_send()
        else:
            self.helps_sent += 1
            self._send_help()

    def _send_help(self) -> None:
        now = self.sim.now
        members = 0
        community = self.community
        if community is not None:
            # a HELP is the community's refresh: silent members lapse
            for nid in community.note_refresh(now):
                self.view.forget(nid)
            members = community.size()
        msg = Help(
            organizer=self.node_id,
            members=members,
            demand=self._pending_demand,
            sent_at=now,
            help_id=self.helps_sent - 1 if self.help is None else self.help.last_help_id,
        )
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(
                now, "help-sent", node=self.node_id, demand=msg.demand,
                help_id=msg.help_id,
            )
        self.flood(KIND_HELP, msg)

    # Respond: Algorithm P ----------------------------------------------------

    def _on_help(self, delivery: Delivery) -> None:
        help_msg: Help = delivery.payload
        org = help_msg.organizer
        if org == self.node_id or self.pledges is None:
            return
        if not self.safe:
            return  # a compromised node must not attract new work
        memberships = self.memberships
        if self.pledges.should_pledge_on_help():
            # Answer the solicitation (Algorithm P trigger 1) and join:
            # "each host is free to join as many communities as it is
            # able to".  A new join first drops the communities gone silent.
            self._send_pledge(org, in_reply_to=help_msg.help_id)
            if memberships is not None:
                if org not in memberships:
                    memberships.expire(self.sim.now)
                memberships.on_help(org, self.sim.now)
        elif memberships is not None:
            # A known community is alive; renew so a transient overload
            # does not silently drop the membership.
            memberships.renew(org, self.sim.now)

    def _send_pledge(self, organizer: int, in_reply_to: int = -1, kind: str = KIND_PLEDGE) -> None:
        communities = 0 if self.memberships is None else self.memberships.count()
        pledge = self.pledges.make_pledge(
            communities=communities, now=self.sim.now, in_reply_to=in_reply_to
        )
        self.transport.unicast(self.node_id, organizer, kind, pledge)

    def _on_pledge(self, delivery: Delivery) -> None:
        """The organizer's side of a pledge: community, view, Algorithm H."""
        pledge: Pledge = delivery.payload
        now = self.sim.now
        trace = self.sim.trace
        if trace.enabled:
            # Span correlation: (organizer, help_id) keys the HELP round;
            # hop count comes from the (cached) router — asked in the
            # pledge's direction, so a round's pledgers share the
            # organizer's row — latency from the pledge's own send stamp.
            # Guarded so disabled runs pay only the attribute check.
            trace.emit(
                now, "pledge-recv", node=self.node_id,
                pledger=pledge.pledger, help_id=pledge.in_reply_to,
                latency=now - pledge.sent_at,
                hops=max(self.transport.router.distance(pledge.pledger, self.node_id), 0),
            )
        available = pledge.usage < self.threshold
        if self.community is not None:
            self.community.on_pledge(pledge.pledger, now)
        self.view.observe_latency(pledge.pledger, now - pledge.sent_at)
        self.view.update(
            pledge.pledger, pledge.availability, pledge.usage, available, pledge.sent_at
        )
        if self.help is not None:
            # reward iff this pledge could host the pending demand
            self.help.on_pledge(
                found_node=available and pledge.availability >= self._pending_demand
            )

    # Push: advertisements, and trigger 2 --------------------------------------

    def _advertise(self, available: Optional[bool] = None) -> None:
        """Flood this node's state; a crossing passes its own verdict (at an
        upward crossing the node is at/over the threshold, at a downward one
        it just became available again)."""
        if not self.safe:
            return
        snap = self.host.snapshot()
        adv = Advertisement(
            origin=self.node_id,
            availability=snap.headroom,
            usage=snap.usage,
            available=snap.available if available is None else available,
            sent_at=self.sim.now,
        )
        self.flood(KIND_ADV, adv)

    def _on_cross(self, direction: str, _usage: float) -> None:
        """A threshold crossing: the ``crossing`` push floods an ADV, and a
        community member reports to every organizer (Algorithm P trigger 2)."""
        if self.push == "crossing":
            self._advertise(direction == "down")
        if self.memberships is None or not self.safe:
            return
        now = self.sim.now
        organizers = self.memberships.organizers(now)
        for org in organizers:
            self._send_pledge(org)
        self.sim.trace.emit(
            now, "crossing-pledge", node=self.node_id, direction=direction,
            organizers=len(organizers),
        )

    def _on_adv(self, delivery: Delivery) -> None:
        adv = delivery.payload
        self.view.update(
            adv.origin, adv.availability, adv.usage, adv.available, adv.sent_at
        )

    # Candidate selection -----------------------------------------------------

    def candidates(self, task: Task, *, exclude: tuple = (), limit: int = 8) -> List[int]:
        """Ranked migration targets believed able to host ``task``; none
        for an agent that cannot learn, whatever reached its view."""
        if not self.learns:
            return []
        entries = self.view.candidates(
            self.sim.now,
            min_availability=task.size,
            exclude=exclude,
            limit=limit,
        )
        return [e.node for e in entries]

    # Shared helpers ------------------------------------------------------------

    @property
    def safe(self) -> bool:
        """Whether this node may advertise/pledge (not compromised)."""
        return self.ctx.is_safe()

    def flood(self, kind: str, payload: object) -> List[int]:
        """Disseminate within the configured scope (see ``ProtocolConfig.scope``)."""
        return self.transport.flood(
            self.node_id, kind, payload, neighbors_only=self.config.scope == "neighbors"
        )

    def prime_view(
        self,
        hosts: Dict[int, Host],
        snapshots: Optional[Dict[int, tuple]] = None,
    ) -> None:
        """Install perfect information at t=0, within the protocol scope.

        All nodes start idle and mutually known; priming removes the
        cold-start artifact from protocol comparisons (every protocol
        that can learn is primed identically by the runner).  Under
        neighbour scope only neighbours are primed — the protocol could
        never learn about anyone else, and stale never-refreshed beliefs
        about distant nodes would poison candidate ranking.

        ``snapshots`` is an optional pre-computed
        ``{node: (headroom, usage, available)}`` table (the runner builds
        one vectorized census for all V agents); values must match
        ``hosts[nid].snapshot()`` — without it each priming re-derives
        every in-scope host's snapshot scalar-wise.
        """
        if not self.learns:
            return
        now = self.sim.now
        update = self.view.update
        for nid in self._prime_scope(hosts):
            if snapshots is not None:
                headroom, usage, available = snapshots[nid]
            else:
                snap = hosts[nid].snapshot()
                headroom, usage, available = snap.headroom, snap.usage, snap.available
            update(nid, headroom, usage, available, now)

    def _prime_scope(self, hosts: Dict[int, Host]) -> List[int]:
        """The nodes this agent could ever hear from, in id order."""
        if self.config.scope == "neighbors":
            return sorted(set(self.transport.topo.neighbors(self.node_id)))
        return sorted(nid for nid in hosts if nid != self.node_id)

    def usage_with(self, task: Task) -> float:
        """Queue usage *as if* ``task`` were admitted — Algorithm H's
        "if resource usage would exceed a threshold level" test includes
        the arriving task ("the queue including the new task")."""
        backlog = self.host.queue.backlog() + task.size
        return backlog / self.host.queue.capacity

    def would_exceed_threshold(self, task: Task) -> bool:
        return self.usage_with(task) > self.threshold

    def __repr__(self) -> str:  # pragma: no cover
        parts = (self.pull, self.push, self.respond)
        return f"<{type(self).__name__} node={self.node_id} parts={parts}>"
