"""Pure PULL baseline (the ``Pull-.9`` curve).

"Each host solicits PLEDGE from its community members whenever 1) a task
arrives and 2) the resource usage level is beyond a threshold level.  In
comparison to REALTOR, this scheme generates HELP messages unlimitedly
(without Upper_limit in Algorithm H) as long as resource usage is above
the threshold level."

No interval gate at all: *every* qualifying arrival floods a HELP, and
every below-threshold receiver answers with one PLEDGE.  Overhead
therefore grows linearly with the arrival rate (Figure 6) and "may
suffer from high volume of HELP messages under overloaded conditions
because most hosts cannot pledge" — lots of solicitations, few answers,
stale views.
"""

from __future__ import annotations

from typing import Dict

from ..core.algorithm_p import PledgePolicy
from ..core.messages import KIND_HELP, KIND_PLEDGE, Help, Pledge
from ..runtime.api import Delivery
from ..node.task import Task
from .base import DiscoveryAgent, ProtocolContext

__all__ = ["PurePullAgent"]


class PurePullAgent(DiscoveryAgent):
    """Unlimited on-demand solicitation."""

    name = "pull-.9"

    def __init__(self, ctx: ProtocolContext) -> None:
        super().__init__(ctx)
        self.pledge_policy = PledgePolicy(self.host, self.config.threshold)
        self.helps_sent = 0
        self.pledges_sent = 0

    def _start_protocol(self) -> None:
        pass  # entirely reactive

    # Solicitation -----------------------------------------------------------

    def notify_task_arrival(self, task: Task) -> None:
        if not self.would_exceed_threshold(task):
            return
        self.helps_sent += 1
        msg = Help(
            organizer=self.node_id, members=0, demand=task.size, sent_at=self.sim.now,
            help_id=self.helps_sent - 1,
        )
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(
                self.sim.now, "help-sent", node=self.node_id, demand=msg.demand,
                help_id=msg.help_id,
            )
        self.flood(KIND_HELP, msg)

    # Response -------------------------------------------------------------

    def _on_help(self, delivery: Delivery) -> None:
        help_msg: Help = delivery.payload
        if help_msg.organizer == self.node_id:
            return
        if not self.safe or not self.pledge_policy.should_pledge_on_help():
            return
        pledge = self.pledge_policy.make_pledge(
            communities=0, now=self.sim.now, in_reply_to=help_msg.help_id
        )
        self.pledges_sent += 1
        self.transport.unicast(self.node_id, help_msg.organizer, KIND_PLEDGE, pledge)

    def _on_pledge(self, delivery: Delivery) -> None:
        pledge: Pledge = delivery.payload
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(
                self.sim.now, "pledge-recv", node=self.node_id,
                pledger=pledge.pledger, help_id=pledge.in_reply_to,
                latency=self.sim.now - pledge.sent_at,
                hops=max(self.transport.router.distance(pledge.pledger, self.node_id), 0),
            )
        self.view.observe_latency(pledge.pledger, self.sim.now - pledge.sent_at)
        self.view.update(
            pledge.pledger,
            pledge.availability,
            pledge.usage,
            pledge.usage < self.config.threshold,
            pledge.sent_at,
        )

    def stats(self) -> Dict[str, float]:
        base = super().stats()
        base.update(helps=float(self.helps_sent), pledges=float(self.pledges_sent))
        return base
