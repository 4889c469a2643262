"""Adaptive PULL baseline (the ``Pull-100`` curve).

"An adaptive PULL which limits HELP interval from increasing infinitely,
in this case the limiting value is 100 time units (Upper_limit in
Figure 2). ... it generates HELP messages in the same fashion as in
REALTOR.  It is different from REALTOR, however, in that it generates
PLEDGE exactly once in response to each HELP."

So: full Algorithm H on the solicitation side (adaptive interval with
reward/penalty, capped at 100), but *no* crossing-triggered pledges — a
receiver answers each HELP at most once and then goes silent until the
next HELP.  The information an organizer holds is therefore only as
fresh as its own last HELP, which is why this protocol has both the
lowest overhead in Figure 6 and the weakest admission probability in
Figure 5 ("the untimeliness of the pull-based approach").

A ``fixed_window`` flag degrades Algorithm H to the plain time-window
variant ("adaptive pull time window = 100" in the figure captions) for
the ablation study.
"""

from __future__ import annotations

from typing import Dict

from ..core.algorithm_h import HelpScheduler
from ..core.algorithm_p import PledgePolicy
from ..core.messages import KIND_HELP, KIND_PLEDGE, Help, Pledge
from ..runtime.api import Delivery
from ..node.task import Task
from .base import DiscoveryAgent, ProtocolContext

__all__ = ["AdaptivePullAgent"]


class AdaptivePullAgent(DiscoveryAgent):
    """Rate-limited on-demand solicitation (Algorithm H without the push half)."""

    name = "pull-100"

    def __init__(self, ctx: ProtocolContext, fixed_window: bool = False) -> None:
        super().__init__(ctx)
        cfg = self.config
        self.fixed_window = fixed_window
        self.help = HelpScheduler(
            self.sim,
            self._send_help,
            initial_interval=(cfg.upper_limit if fixed_window else cfg.initial_help_interval),
            alpha=cfg.alpha,
            beta=cfg.beta,
            upper_limit=cfg.upper_limit,
            response_timeout=cfg.response_timeout,
            adaptive=not fixed_window,
            min_interval=cfg.min_help_interval,
            max_retries=cfg.help_retry_budget,
            retry_backoff=cfg.help_retry_backoff,
            owner=self.node_id,
        )
        self.pledge_policy = PledgePolicy(self.host, cfg.threshold)
        self._pending_demand = 0.0
        self.pledges_sent = 0

    def _start_protocol(self) -> None:
        pass  # reactive; the HelpScheduler timer arms on demand

    def _stop_protocol(self) -> None:
        self.help.stop()

    # Solicitation ----------------------------------------------------------

    def notify_task_arrival(self, task: Task) -> None:
        if self.would_exceed_threshold(task):
            self._pending_demand = task.size
            self.help.maybe_send()

    def _send_help(self) -> None:
        msg = Help(
            organizer=self.node_id,
            members=0,
            demand=self._pending_demand,
            sent_at=self.sim.now,
            help_id=self.help.last_help_id,
        )
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(
                self.sim.now, "help-sent", node=self.node_id, demand=msg.demand,
                help_id=msg.help_id,
            )
        self.flood(KIND_HELP, msg)

    # Response ---------------------------------------------------------------

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
        available = pledge.usage < self.config.threshold
        self.view.observe_latency(pledge.pledger, self.sim.now - pledge.sent_at)
        self.view.update(
            pledge.pledger, pledge.availability, pledge.usage, available, pledge.sent_at
        )
        demand = self._pending_demand if self._pending_demand > 0 else 0.0
        self.help.on_pledge(found_node=available and pledge.availability >= demand)

    def stats(self) -> Dict[str, float]:
        base = super().stats()
        base.update(
            helps=float(self.help.helps_sent),
            pledges=float(self.pledges_sent),
            help_interval=self.help.interval,
        )
        return base
