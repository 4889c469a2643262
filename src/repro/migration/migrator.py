"""The migration coordinator.

Glues workload arrivals, discovery agents, admission controls and the
fault model together:

* :meth:`MigrationCoordinator.place_task` implements the paper's task
  lifecycle — discovery trigger, local admission, otherwise a
  policy-bounded sequence of remote negotiations;
* :meth:`MigrationCoordinator.handle_fault` implements survivability —
  evacuating components off compromised nodes and accounting losses on
  crashes.

All remote steps are asynchronous (event-driven continuations), so the
coordinator behaves correctly under message latency and mid-negotiation
faults, not just in the zero-latency configuration.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from ..metrics.collector import MetricsCollector
from ..network.faults import NodeState
from ..node.host import Host
from ..node.task import Task, TaskOutcome, TaskStatus
from ..protocols.base import DiscoveryAgent

from .admission import AdmissionControl
from .policy import MigrationPolicy, OneShotPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.api import SchedulerAPI

__all__ = ["MigrationCoordinator"]


class MigrationCoordinator:
    """System-wide placement and survivability logic.

    Parameters
    ----------
    sim:
        Simulation kernel.
    hosts, agents, admissions:
        Per-node components, keyed by node id (same key set).
    metrics:
        Run-level metrics sink.
    policy:
        Migration-attempt policy (defaults to the paper's one-shot).
    is_up:
        Liveness predicate (from the fault manager); defaults to all-up.
    silent_retry_budget:
        Extra candidates tried when a negotiation fails *silently* (the
        candidate timed out or was unreachable — distinct from an explicit
        refusal).  ``0`` keeps the paper-faithful behaviour: the policy's
        attempt list is final.  With a budget, each silent failure on the
        last planned attempt appends the next-ranked untried candidate, so
        one dead target does not doom a placement on a lossy network.
    """

    def __init__(
        self,
        sim: "SchedulerAPI",
        hosts: Dict[int, Host],
        agents: Dict[int, DiscoveryAgent],
        admissions: Dict[int, AdmissionControl],
        metrics: MetricsCollector,
        policy: Optional[MigrationPolicy] = None,
        is_up: Optional[Callable[[int], bool]] = None,
        silent_retry_budget: int = 0,
    ) -> None:
        if set(hosts) != set(agents) or set(hosts) != set(admissions):
            raise ValueError("hosts/agents/admissions must share the same node ids")
        if silent_retry_budget < 0:
            raise ValueError("silent_retry_budget must be >= 0")
        self.sim = sim
        self.hosts = hosts
        self.agents = agents
        self.admissions = admissions
        self.metrics = metrics
        self.policy = policy if policy is not None else OneShotPolicy()
        self.is_up = is_up if is_up is not None else (lambda _n: True)
        self.silent_retry_budget = silent_retry_budget
        #: count of fallback candidates appended after silent failures
        self.silent_fallbacks = 0
        #: tasks settled as admitted after every reply to a granted
        #: negotiation was lost (see ``_give_up``); nonzero only under
        #: loss impairments or mid-negotiation faults
        self.orphaned_grants = 0
        #: ranking-quality accounting: a *mis-rank* is a top-ranked
        #: candidate that failed its negotiation (the view believed it
        #: best, reality disagreed); *fallback depth* is how far down the
        #: ranked list a granted placement had to walk.  Both are policy
        #: scorecards — a better ranking drives both toward zero.
        self.first_choice_attempts = 0
        self.first_choice_failures = 0
        self.fallback_depth_sum = 0
        self.placements_granted = 0

    # Placement ------------------------------------------------------------

    def place_task(self, task: Task) -> None:
        """Run the full admission pipeline for a newly arrived task."""
        self.metrics.task_generated()
        origin = task.origin
        if not self.is_up(origin):
            # Arrivals are only routed to live nodes by the workload layer;
            # a race with a crash in the same instant rejects the task.
            task.mark_rejected()
            self.metrics.task_rejected(task)
            return
        host = self.hosts[origin]
        agent = self.agents[origin]
        # Discovery trigger first: the paper's Algorithm H fires on every
        # arrival whose admission *would* push usage over the threshold —
        # including arrivals that are still admitted locally.
        agent.notify_task_arrival(task)
        # try_accept performs the fit test and the admission in one pass
        if host.try_accept(task, TaskOutcome.LOCAL) is not None:
            self.metrics.task_admitted(task)
            return
        self._try_remote(task, outcome=TaskOutcome.MIGRATED)

    def _try_remote(self, task: Task, outcome: TaskOutcome) -> None:
        ranked = self.agents[task.origin].candidates(task)
        attempts = list(self.policy.select(task, ranked))
        self._attempt_chain(task, attempts, 0, outcome, self.silent_retry_budget)

    def _attempt_chain(
        self,
        task: Task,
        attempts: List[int],
        idx: int,
        outcome: TaskOutcome,
        budget: int,
    ) -> None:
        if idx >= len(attempts):
            self._give_up(task, outcome)
            return
        candidate = attempts[idx]
        trace = self.sim.trace
        if trace.enabled:
            # Span correlation: the task id groups the try chain; the
            # settlement ("migration"/"rejection"/"evacuation") closes it.
            trace.emit(
                self.sim.now,
                "candidate-try",
                task=task.task_id,
                src=task.origin,
                dst=candidate,
                attempt=idx,
            )

        def _done(reason: str) -> None:
            granted = reason == "granted"
            if outcome is TaskOutcome.MIGRATED:
                self.metrics.migration_attempt(granted)
            # Feed the origin view's observation side-table (no-op under
            # the default headroom policy) and the ranking scorecard.
            view = self.agents[task.origin].view
            view.observe_outcome(candidate, reason)
            if idx == 0:
                self.first_choice_attempts += 1
                if not granted:
                    self.first_choice_failures += 1
            if granted:
                self.placements_granted += 1
                self.fallback_depth_sum += idx
                # The responder already reserved and admitted the task.
                self._book_admission(task, outcome)
                if outcome is TaskOutcome.MIGRATED:
                    self.sim.trace.emit(
                        self.sim.now, "migration", task=task.task_id,
                        src=task.origin, dst=candidate, outcome=outcome.value,
                    )
                else:
                    self.sim.trace.emit(
                        self.sim.now, "evacuation",
                        task=task.task_id, src=task.origin, dst=candidate,
                    )
                return
            if outcome is TaskOutcome.MIGRATED:
                # Stale view: drop the failed candidate so an immediate
                # retry (k-try policy) does not repeat it.  A refused
                # evacuation leaves the compromised node's view as the
                # attack found it: the evacuations still queued behind it
                # rank from the same pre-attack view.
                view.forget(candidate)
            # Silent failure (timeout/unreachable) on the final planned
            # attempt: spend retry budget on the next-ranked untried
            # candidate.  An explicit refusal never falls back — the
            # policy already bounded how many refusals to absorb.
            if (
                budget > 0
                and idx + 1 >= len(attempts)
                and reason in ("timeout", "unreachable")
            ):
                untried = self.agents[task.origin].candidates(task, exclude=tuple(attempts))
                if untried:
                    fallback = untried[0]
                    self.silent_fallbacks += 1
                    attempts.append(fallback)
                    self.sim.trace.emit(
                        self.sim.now,
                        "silent-fallback",
                        task=task.task_id,
                        src=task.origin,
                        dst=fallback,
                        silent=candidate,
                    )
                    self._attempt_chain(task, attempts, idx + 1, outcome, budget - 1)
                    return
            self._attempt_chain(task, attempts, idx + 1, outcome, budget)

        self.admissions[task.origin].negotiate(task, candidate, outcome, _done)

    def _book_admission(self, task: Task, outcome: TaskOutcome) -> None:
        if outcome is TaskOutcome.MIGRATED:
            self.metrics.task_admitted(task)
        else:
            # An evacuated task was counted admitted at its first
            # placement: moving it is an evacuation, not a second admission.
            self.metrics.evacuation(task, True)

    def _give_up(self, task: Task, outcome: TaskOutcome) -> None:
        if task.status in (TaskStatus.QUEUED, TaskStatus.COMPLETED):
            # Orphaned grant: a responder reserved and admitted the task
            # but its grant reply was lost in the network (or found its
            # requester down), so the origin timed out and exhausted its
            # chain while the task was (or is) genuinely running remotely.
            # Settle it as the admission the lost reply never confirmed —
            # rejecting (let alone crashing on) a task that completed
            # elsewhere corrupts the books.  A withdrawn task is CREATED
            # again, so the test holds for evacuations too.  Unreachable
            # on a perfect network: replies only disappear under loss
            # impairments or mid-negotiation faults.
            self.orphaned_grants += 1
            self._book_admission(task, outcome)
            self.sim.trace.emit(
                self.sim.now,
                "orphaned-grant",
                task=task.task_id,
                src=task.origin,
                dst=task.admitted_at,
            )
            return
        if task.status is TaskStatus.REJECTED:
            # Admitted on a lost grant, then lost to a crash before the
            # origin gave up — the queue drop already accounted it.
            return
        if outcome is TaskOutcome.MIGRATED:
            task.mark_rejected()
            self.metrics.task_rejected(task)
            record = "rejection"
        else:
            task.mark_lost()
            self.metrics.evacuation(task, False)
            self.metrics.task_lost(task)
            record = "evacuation-lost"
        self.sim.trace.emit(self.sim.now, record, task=task.task_id, src=task.origin)

    def ranking_stats(self) -> Dict[str, float]:
        """Ranking-quality scorecard for the run summary / telemetry."""
        attempts = self.first_choice_attempts
        granted = self.placements_granted
        return {
            "misrank_rate": (
                self.first_choice_failures / attempts if attempts else 0.0
            ),
            "fallback_depth_mean": (
                self.fallback_depth_sum / granted if granted else 0.0
            ),
            "first_choice_attempts": float(attempts),
            "first_choice_failures": float(self.first_choice_failures),
        }

    # Survivability -----------------------------------------------------------

    def handle_fault(self, node: int, state: NodeState) -> None:
        """Fault-manager observer: evacuate on compromise, account crashes."""
        if state is NodeState.COMPROMISED:
            self.evacuate(node)
        elif state is NodeState.CRASHED:
            lost = self.hosts[node].crash()
            for task in lost:
                self.metrics.task_lost(task)

    def evacuate(self, node: int) -> None:
        """Move every withdrawable component off a compromised node.

        The compromised node uses its *own* (pre-attack) view — the whole
        point of pro-active discovery is that this list is ready the
        moment the attack is detected.  Tasks that cannot be placed are
        lost (evacuation failure); a started head task cannot be
        withdrawn and stays behind.
        """
        host = self.hosts[node]
        for task in list(host.evacuable_tasks()):
            host.withdraw(task)
            # Withdrawn tasks re-enter the placement pipeline from this
            # node, bypassing local admission (the node is compromised).
            task.origin = node
            self._try_remote(task, TaskOutcome.EVACUATED)
