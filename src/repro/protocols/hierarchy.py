"""The Section 7 hierarchy's agent: REALTOR inside a neighbour group, and
an escalation through the group gateways when the group cannot help.

The design and the group layout are in :mod:`repro.core.hierarchy`.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.hierarchy import GroupDirectory
from ..core.messages import Help, Pledge
from ..runtime.api import Delivery
from .base import DiscoveryAgent, ProtocolContext

__all__ = [
    "HierarchicalRealtorAgent",
    "KIND_ESCALATE",
    "KIND_REMOTE_HELP",
    "KIND_REMOTE_PLEDGE",
]

KIND_ESCALATE = "ESCALATE"
KIND_REMOTE_HELP = "REMOTE_HELP"
KIND_REMOTE_PLEDGE = "REMOTE_PLEDGE"


class HierarchicalRealtorAgent(DiscoveryAgent):
    """REALTOR's parts plus the Section 7 inter-group escalation level."""

    def __init__(self, ctx: ProtocolContext, *parts: str, group_size: int) -> None:
        super().__init__(ctx, *parts)
        topo = ctx.transport.topo
        self.directory = GroupDirectory.of(topo, group_size)
        # a node created after the initial partition (churn join) is
        # adopted into its neighbours' group
        self.directory.adopt(self.node_id, topo)
        self.help.on_timeout = self._escalate
        self.escalations = 0

    # Level-1 dissemination is group-scoped -------------------------------

    def flood(self, kind: str, payload: object) -> List[int]:
        """HELP stays inside the neighbour group (level 1)."""
        members = [m for m in self.directory.members(self.node_id)
                   if m != self.node_id]
        return self.transport.multicast(self.node_id, members, kind, payload)

    def _prime_scope(self, hosts) -> List[int]:
        """Level-1 knowledge is group-scoped too."""
        return [
            nid for nid in self.directory.members(self.node_id)
            if nid != self.node_id and nid in hosts
        ]

    # Level-2: escalation ----------------------------------------------------

    def start(self) -> None:
        super().start()
        self.transport.register(self.node_id, KIND_ESCALATE, self._on_escalate)
        self.transport.register(self.node_id, KIND_REMOTE_HELP, self._on_remote_help)
        self.transport.register(
            self.node_id, KIND_REMOTE_PLEDGE, self._on_remote_pledge
        )

    def _my_gateway(self) -> Optional[int]:
        return self.directory.gateway(
            self.directory.group_of(self.node_id), self.transport.is_up
        )

    def _escalate(self) -> None:
        """The local HELP round failed: go up a level."""
        gateway = self._my_gateway()
        if gateway is None:
            return
        self.escalations += 1
        msg = Help(
            organizer=self.node_id,
            members=self.community.size(),
            demand=self._pending_demand,
            sent_at=self.sim.now,
        )
        if gateway == self.node_id:
            self._relay_remote_help(msg)
        else:
            self.transport.unicast(self.node_id, gateway, KIND_ESCALATE, msg)

    def _on_escalate(self, delivery: Delivery) -> None:
        """Gateway duty: relay a member's failed search to peer gateways."""
        self._relay_remote_help(delivery.payload)

    def _relay_remote_help(self, help_msg: Help) -> None:
        peers = [
            gw
            for gw in self.directory.gateways(self.transport.is_up)
            if gw != self.node_id
        ]
        if peers:
            self.transport.multicast(self.node_id, peers, KIND_REMOTE_HELP, help_msg)

    def _on_remote_help(self, delivery: Delivery) -> None:
        """Gateway duty: answer with this group's best-known candidate."""
        help_msg: Help = delivery.payload
        best = self.view.best(self.sim.now, min_availability=help_msg.demand)
        if best is None:
            # fall back to offering ourselves when we qualify
            snap = self.host.snapshot()
            if self.safe and snap.available and snap.headroom >= help_msg.demand:
                self._send_pledge(help_msg.organizer, kind=KIND_REMOTE_PLEDGE)
            return
        # forward the best candidate's availability on its behalf (the
        # gateway vouches with the freshest information it holds)
        pledge = Pledge(
            pledger=best.node,
            availability=best.availability,
            usage=best.usage,
            communities=0,
            grant_probability=0.5,
            sent_at=best.timestamp,
        )
        self.transport.unicast(
            self.node_id, help_msg.organizer, KIND_REMOTE_PLEDGE, pledge
        )

    def _on_remote_pledge(self, delivery: Delivery) -> None:
        pledge = delivery.payload
        available = pledge.usage < self.threshold
        self.view.update(
            pledge.pledger, pledge.availability, pledge.usage, available, pledge.sent_at
        )
        self.help.on_pledge(
            found_node=pledge.availability >= self._pending_demand and available
        )

