"""Admission control and negotiation.

Section 3: "Receiving the list, Admission Control A begins negotiation
with the admission controls in the list.  If one of the hosts admits the
migration request, then Admission Control A asks Migration Module A to
actually move the object."  Admission is "a simple utilization test"
thanks to guaranteed-rate scheduling.

The negotiation is a two-message exchange over the transport
(``ADMIT_REQ`` / ``ADMIT_REP``) whose cost the paper counts as
"communication for migration between admission controls".  A granted
request *reserves immediately* on the remote side (speculative
admission) so concurrent negotiations cannot over-commit a host.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, TYPE_CHECKING

from ..node.host import Host
from ..node.task import Task, TaskOutcome, TaskStatus
from ..runtime.api import Delivery

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.api import SchedulerAPI, TimerHandle, TransportAPI

__all__ = ["AdmissionControl", "KIND_ADMIT_REQ", "KIND_ADMIT_REP"]

KIND_ADMIT_REQ = "ADMIT_REQ"
KIND_ADMIT_REP = "ADMIT_REP"

_negotiation_ids = itertools.count()


@dataclass(frozen=True)
class AdmitRequest:
    negotiation_id: int
    requester: int
    task: Task
    outcome_if_granted: TaskOutcome


@dataclass(frozen=True)
class AdmitReply:
    negotiation_id: int
    responder: int
    granted: bool


class AdmissionControl:
    """Per-node admission controller.

    Parameters
    ----------
    sim, transport, host:
        The node's environment.
    on_request_observed:
        Optional callback ``(granted: bool)`` — feeds Algorithm P's
        grant-probability estimate.
    reply_timeout:
        Seconds a requester waits for a reply before treating the
        candidate as failed (covers candidate crashes mid-negotiation).
    """

    def __init__(
        self,
        sim: "SchedulerAPI",
        transport: "TransportAPI",
        host: Host,
        *,
        on_request_observed: Optional[Callable[[bool], None]] = None,
        reply_timeout: float = 5.0,
        accepting: Optional[Callable[[], bool]] = None,
    ) -> None:
        if reply_timeout <= 0:
            raise ValueError("reply_timeout must be positive")
        self.sim = sim
        self.transport = transport
        self.host = host
        self.node_id = host.node_id
        self.on_request_observed = on_request_observed
        self.reply_timeout = reply_timeout
        #: whether this node may take on new work (false while compromised)
        self.accepting = accepting if accepting is not None else (lambda: True)
        self._pending: Dict[int, Callable[[bool], None]] = {}
        self._timeouts: Dict[int, "TimerHandle"] = {}
        self.requests_received = 0
        self.requests_granted = 0
        #: why the most recent negotiation resolved, readable from inside
        #: the callback: "granted" | "refused" (explicit denial) |
        #: "timeout" (candidate silent) | "unreachable" (request
        #: undeliverable).  Lets the migration layer distinguish a live
        #: refusal from a silent candidate without widening the
        #: ``callback(granted)`` signature.
        self.last_reason: Optional[str] = None
        self.timeouts_fired = 0
        transport.register(self.node_id, KIND_ADMIT_REQ, self._on_request)
        transport.register(self.node_id, KIND_ADMIT_REP, self._on_reply)

    # Requester side ----------------------------------------------------------

    def negotiate(
        self,
        task: Task,
        candidate: int,
        outcome: TaskOutcome,
        callback: Callable[[bool], None],
    ) -> None:
        """Ask ``candidate`` to admit ``task``; ``callback(granted)`` fires
        exactly once — on the reply, on an undeliverable request, or on
        timeout."""
        nid = next(_negotiation_ids)
        req = AdmitRequest(nid, self.node_id, task, outcome)
        self._pending[nid] = callback
        sent = self.transport.unicast(self.node_id, candidate, KIND_ADMIT_REQ, req)
        if not sent:
            # Candidate unreachable/dead — fail fast (cost already charged).
            self._resolve(nid, False, "unreachable")
            return
        self._timeouts[nid] = self.sim.after(self.reply_timeout, self._on_timeout, nid)

    def _on_timeout(self, negotiation_id: int) -> None:
        self._timeouts.pop(negotiation_id, None)
        self.timeouts_fired += 1
        self._resolve(negotiation_id, False, "timeout")

    def _on_reply(self, delivery: Delivery) -> None:
        rep: AdmitReply = delivery.payload
        self.sim.cancel(self._timeouts.pop(rep.negotiation_id, None))
        self._resolve(rep.negotiation_id, rep.granted, "granted" if rep.granted else "refused")

    def _resolve(self, negotiation_id: int, granted: bool, reason: str) -> None:
        callback = self._pending.pop(negotiation_id, None)
        if callback is not None:
            self.last_reason = reason
            callback(granted)

    # Responder side ---------------------------------------------------------

    def _on_request(self, delivery: Delivery) -> None:
        req: AdmitRequest = delivery.payload
        self.requests_received += 1
        granted = self._try_admit(req.task, req.outcome_if_granted)
        if granted:
            self.requests_granted += 1
        if self.on_request_observed is not None:
            self.on_request_observed(granted)
        rep = AdmitReply(req.negotiation_id, self.node_id, granted)
        self.transport.unicast(self.node_id, req.requester, KIND_ADMIT_REP, rep)

    def _try_admit(self, task: Task, outcome: TaskOutcome) -> bool:
        """Speculative admission: reserve now or refuse."""
        if not self.accepting():
            return False  # compromised/unsafe node refuses new work
        if task.status is TaskStatus.REJECTED:
            # the request outlived its requester's reply_timeout: enqueuing
            # a settled task would leave a resident that never completes
            return False
        if self.host.try_accept(task, outcome) is None:
            return False
        task.migrations += 1
        return True

    @property
    def grant_rate(self) -> float:
        """Observed fraction of remote requests granted (diagnostics)."""
        if self.requests_received == 0:
            return 0.0
        return self.requests_granted / self.requests_received
