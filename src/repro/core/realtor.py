"""The REALTOR agent — adaptive PULL (Algorithm H) + adaptive PUSH
(Algorithm P's crossing pledges) over community soft state.

Per node, REALTOR:

* floods ``HELP`` when a task arrival would push usage over the threshold
  and the adaptive interval window has passed (Algorithm H);
* answers others' HELPs with unicast ``PLEDGE`` when below the threshold,
  joining/renewing membership in their community (Algorithm P trigger 1);
* unicasts ``PLEDGE`` to every community it belongs to whenever its own
  usage crosses the threshold in either direction (Algorithm P trigger 2
  — the push half that keeps organizers' lists current);
* maintains its own community from incoming pledges and serves ranked
  candidates to the migration layer out of its view.

The protocol is stateless in the paper's sense: all state is soft,
refreshed by the HELP/PLEDGE exchange, and any of it can be lost and
rebuilt (idempotence is exercised by the fault-injection tests).
"""

from __future__ import annotations

from typing import Dict

from ..runtime.api import Delivery
from ..node.task import Task
from ..protocols.base import DiscoveryAgent, ProtocolContext
from .algorithm_h import HelpScheduler
from .algorithm_p import PledgePolicy
from .community import Community, MembershipTable
from .messages import KIND_HELP, KIND_PLEDGE, Help, Pledge

__all__ = ["RealtorAgent"]


class RealtorAgent(DiscoveryAgent):
    """One node's REALTOR instance (the ``REALTOR-100`` curve)."""

    name = "realtor"

    def __init__(self, ctx: ProtocolContext) -> None:
        super().__init__(ctx)
        cfg = self.config
        self.help = HelpScheduler(
            self.sim,
            self._send_help,
            initial_interval=cfg.initial_help_interval,
            alpha=cfg.alpha,
            beta=cfg.beta,
            upper_limit=cfg.upper_limit,
            response_timeout=cfg.response_timeout,
            adaptive=True,
            min_interval=cfg.min_help_interval,
            max_retries=cfg.help_retry_budget,
            retry_backoff=cfg.help_retry_backoff,
            owner=self.node_id,
        )
        self.pledges = PledgePolicy(self.host, cfg.threshold)
        self.community = Community(self.node_id, member_ttl=cfg.membership_ttl)
        self.memberships = MembershipTable(self.node_id, membership_ttl=cfg.membership_ttl)
        #: demand that triggered the latest HELP (the urgency field, and the
        #: bar for Algorithm H's "a node is found for migration" reward)
        self._pending_demand = 0.0
        self.crossing_pledges_sent = 0

    # Lifecycle ------------------------------------------------------------

    def _start_protocol(self) -> None:
        self.host.monitor.on_cross(self._on_threshold_cross)

    def _stop_protocol(self) -> None:
        self.help.stop()

    # Pull half: Algorithm H -------------------------------------------------

    def notify_task_arrival(self, task: Task) -> None:
        """Arrival gate: HELP iff usage-including-task exceeds the threshold
        and the adaptive window has passed."""
        if self.would_exceed_threshold(task):
            self._pending_demand = task.size
            self.help.maybe_send()

    def _send_help(self) -> None:
        now = self.sim.now
        dropped = self.community.note_refresh(now)
        for nid in dropped:
            self.view.forget(nid)
        msg = Help(
            organizer=self.node_id,
            members=self.community.size(),
            demand=self._pending_demand,
            sent_at=now,
            help_id=self.help.last_help_id,
        )
        self.sim.trace.emit(
            now, "help-sent", node=self.node_id, demand=msg.demand,
            help_id=msg.help_id,
        )
        self.flood(KIND_HELP, msg)

    # Push half: Algorithm P --------------------------------------------------

    def _on_help(self, delivery: Delivery) -> None:
        help_msg: Help = delivery.payload
        org = help_msg.organizer
        if org == self.node_id:
            return
        if not self.safe:
            return  # a compromised node must not attract new work
        if self.pledges.should_pledge_on_help():
            # Answer the solicitation regardless (Algorithm P trigger 1) …
            self._send_pledge_to(org, in_reply_to=help_msg.help_id)
            # … but only *join* (committing to crossing updates and
            # renewals) within the spare-resource membership budget.
            if org in self.memberships or self._may_join(help_msg):
                self.memberships.on_help(org, self.sim.now)
        elif org in self.memberships:
            # A known community is alive; renew so a transient overload
            # does not silently drop the membership.
            self.memberships.on_help(org, self.sim.now)

    def _may_join(self, help_msg: Help) -> bool:
        """Join cap: "as many communities as it is able to without
        over-allocating its spare resources" — each membership implicitly
        promises one component of the organizer's demand size."""
        current = self.memberships.count(self.sim.now)
        cap = self.config.max_memberships
        if self.config.dynamic_membership:
            demand = max(help_msg.demand, 1e-6)
            dynamic_cap = int(self.host.availability() // demand)
            cap = dynamic_cap if cap is None else min(cap, dynamic_cap)
        return cap is None or current < cap

    def _on_threshold_cross(self, direction: str, _usage: float) -> None:
        """Trigger 2: report the crossing to every community we belong to."""
        if not self.safe:
            return
        organizers = self.memberships.organizers(self.sim.now)
        for org in organizers:
            self._send_pledge_to(org)
            self.crossing_pledges_sent += 1
        self.sim.trace.emit(
            self.sim.now,
            "crossing-pledge",
            node=self.node_id,
            direction=direction,
            organizers=len(organizers),
        )

    def _send_pledge_to(self, organizer: int, in_reply_to: int = -1) -> None:
        pledge = self.pledges.make_pledge(
            communities=self.memberships.count(), now=self.sim.now,
            in_reply_to=in_reply_to,
        )
        self.transport.unicast(self.node_id, organizer, KIND_PLEDGE, pledge)

    # Organizer side --------------------------------------------------------

    def _on_pledge(self, delivery: Delivery) -> None:
        pledge: Pledge = delivery.payload
        trace = self.sim.trace
        if trace.enabled:
            # Span correlation: (organizer, help_id) keys the HELP round;
            # hop count comes from the (cached) router — asked in the
            # pledge's direction, so a round's pledgers share the
            # organizer's row — latency from the pledge's own send stamp.
            # Guarded so disabled runs pay only the attribute check.
            trace.emit(
                self.sim.now,
                "pledge-recv",
                node=self.node_id,
                pledger=pledge.pledger,
                help_id=pledge.in_reply_to,
                latency=self.sim.now - pledge.sent_at,
                hops=max(self.transport.router.distance(pledge.pledger, self.node_id), 0),
            )
        self.community.on_pledge(pledge, self.sim.now)
        available = pledge.usage < self.config.threshold
        self.community.mark_available(pledge.pledger, available)
        self.view.observe_latency(pledge.pledger, self.sim.now - pledge.sent_at)
        self.view.update(
            pledge.pledger, pledge.availability, pledge.usage, available, pledge.sent_at
        )
        # Algorithm H feedback: reward iff this pledge could host the
        # pending demand.
        demand = self._pending_demand if self._pending_demand > 0 else 0.0
        self.help.on_pledge(found_node=available and pledge.availability >= demand)

    # Introspection ---------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        base = super().stats()
        base.update(
            help_interval=self.help.interval,
            helps_sent=float(self.help.helps_sent),
            community_size=float(self.community.size()),
            memberships=float(self.memberships.count()),
            crossing_pledges=float(self.crossing_pledges_sent),
        )
        return base
