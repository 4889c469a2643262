"""Experiment configuration with the paper's defaults.

Every figure in Section 5 uses: 5x5 mesh (25 nodes, 40 links), queue
capacity 100 s, exponential task sizes of mean 5 s, Poisson arrivals at
rate lambda (the x axis), threshold 0.9, push interval 1 s, adaptive-pull
window / Upper_limit 100, one-shot migration, and message accounting of
flood = #links / unicast = 4.  :func:`paper_config` builds exactly that;
everything is overridable for the ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from ..migration.policy import make_policy
from ..network.impairments import ImpairmentConfig
from ..network.transport import UnicastCostMode
from ..obs.config import ObsConfig
from ..protocols.base import ProtocolConfig
from ..protocols.registry import is_protocol, protocol_names
from ..workload.attack import AttackConfig
from ..workload.churn import ChurnConfig
from ..workload.fleet import FleetConfig

__all__ = ["ExperimentConfig", "paper_config", "PAPER_LAMBDAS", "TOPOLOGIES", "UNICAST_COSTS"]

#: the arrival-rate sweep of Figures 5-8 (tasks/second)
PAPER_LAMBDAS: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)

#: the overlay families the runner's topology builder dispatches on
TOPOLOGIES: Tuple[str, ...] = (
    "mesh", "torus", "ring", "star", "full", "tree", "random", "scale-free",
)
#: the unicast charging modes (``UnicastCostMode`` by value)
UNICAST_COSTS: Tuple[str, ...] = tuple(mode.value for mode in UnicastCostMode)
#: what a "random" policy spec needs to parse; the parsed policy is
#: dropped, so nothing ever draws from it
_PARSE_RNG = np.random.default_rng(0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one simulation run."""

    # Protocol under test ------------------------------------------------
    protocol: str = "realtor"
    protocol_config: ProtocolConfig = field(default_factory=ProtocolConfig)

    # Workload --------------------------------------------------------------
    arrival_rate: float = 5.0           # lambda, tasks/s system-wide
    task_mean: float = 5.0              # mean (exponential) task size, seconds
    cap_task_sizes: bool = True         # cap draws at queue capacity
    #: relative deadline = factor * size (None = best-effort, the paper's
    #: simulation; the QoS experiments use e.g. 10.0).  Deadline misses
    #: are reported in ``result.extra["deadline_miss_rate"]``.
    deadline_factor: Optional[float] = None

    # Nodes ----------------------------------------------------------------
    queue_capacity: float = 100.0       # seconds (50 on the testbed)
    #: extra consumable resources per host, e.g. {"bandwidth": 100.0}
    #: (footnote 3's "more general resource scenarios")
    extra_resources: Tuple[Tuple[str, float], ...] = ()
    #: mean demand per task on each extra resource (exponential draws);
    #: keys must be a subset of extra_resources
    demand_means: Tuple[Tuple[str, float], ...] = ()
    #: per-host security level by node id modulo pattern length; tasks
    #: may require a minimum level (LEVEL resource, never consumed)
    security_levels: Tuple[float, ...] = ()
    #: fraction of tasks requiring security level >= 1.0 (0 disables)
    secure_task_fraction: float = 0.0
    #: heterogeneous-fleet axis: per-node capacity/speed/threshold/
    #: resource-scale distributions drawn from the ``fleet[n]`` named RNG
    #: substreams.  ``None`` (default) is the paper's uniform fleet —
    #: byte-identical to the pre-fleet traces, no stream touched.
    fleet: Optional[FleetConfig] = None

    # Churn -----------------------------------------------------------------
    #: continuous join/leave churn generated from the kernel's ``"churn"``
    #: named substream and installed by the runner; ``None`` (default) or
    #: zero rates keep the static paper overlay — byte-identical.
    churn: Optional[ChurnConfig] = None

    # Attack ----------------------------------------------------------------
    #: a sweep / region / random-failure attack materialised from the
    #: kernel's ``"attack"`` named substream and installed by the runner
    #: after churn; ``None`` (default) keeps every node up — byte-identical.
    attack: Optional[AttackConfig] = None

    # Topology ----------------------------------------------------------------
    #: one of :data:`TOPOLOGIES`
    topology: str = "mesh"
    rows: int = 5
    cols: int = 5
    #: explicit node count — the scaling axis.  ``None`` keeps the
    #: classic ``rows x cols`` sizing; a value picks the most nearly
    #: square grid for mesh/torus and sizes the other families directly,
    #: so sweeps can say ``nodes=2500`` without factorising by hand.
    nodes: Optional[int] = None

    # Transport accounting ------------------------------------------------------
    unicast_cost: str = "fixed"         # one of UNICAST_COSTS (paper: fixed 4)
    fixed_unicast_cost: float = 4.0
    #: override the per-flood charge (LAN IP multicast = 1); None = #links
    flood_cost_override: Optional[float] = None
    per_hop_latency: float = 0.0

    #: message-level impairments (loss / jitter / duplication / reorder);
    #: ``None`` (the paper's perfect network) keeps the transport's
    #: impairment hook uninstalled — the default path is byte-identical
    impairments: Optional[ImpairmentConfig] = None

    # Migration -------------------------------------------------------------------
    policy: str = "one-shot"
    #: extra candidates tried when a negotiation fails silently (candidate
    #: unreachable or timed out); 0 = paper-faithful one-shot behaviour
    migration_retry_budget: int = 0

    # Run control --------------------------------------------------------------------
    horizon: float = 10_000.0
    seed: int = 1
    prime_views: bool = True
    trace: bool = False
    #: run-wide metrics registry + flight recorder
    #: (:class:`~repro.obs.config.ObsConfig`); ``None`` keeps the whole
    #: observability layer uninstalled — that path is byte-identical
    obs: Optional[ObsConfig] = None

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.task_mean <= 0 or self.queue_capacity <= 0 or self.horizon <= 0:
            raise ValueError("task_mean, queue_capacity, horizon must be positive")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be >= 1")
        declared = {name for name, _ in self.extra_resources}
        undeclared = {name for name, _ in self.demand_means} - declared
        if undeclared:
            raise ValueError(f"demand on undeclared resources: {sorted(undeclared)}")
        if not 0.0 <= self.secure_task_fraction <= 1.0:
            raise ValueError("secure_task_fraction must be in [0, 1]")
        if self.secure_task_fraction > 0 and not self.security_levels:
            raise ValueError("secure tasks need security_levels")
        if self.deadline_factor is not None and self.deadline_factor <= 0:
            raise ValueError("deadline_factor must be positive")
        if self.migration_retry_budget < 0:
            raise ValueError("migration_retry_budget must be >= 0")
        if self.nodes is not None and self.nodes < 2:
            raise ValueError("nodes must be >= 2")
        # Checked here, not first inside build_system: a typo in a plan
        # would otherwise surface in a pool worker after the rest ran.
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; known: {TOPOLOGIES}")
        if self.unicast_cost not in UNICAST_COSTS:
            raise ValueError(f"unknown unicast_cost {self.unicast_cost!r}; known: {UNICAST_COSTS}")
        if not is_protocol(self.protocol):
            raise ValueError(f"unknown protocol {self.protocol!r}; known: {protocol_names()}")
        make_policy(self.policy, all_nodes=(), rng=_PARSE_RNG)  # the runner's parse
        if self.per_hop_latency < 0:
            raise ValueError("per_hop_latency cannot be negative")
        if self.fixed_unicast_cost < 0 or (self.flood_cost_override or 0.0) < 0:
            raise ValueError("message costs cannot be negative")
        if self.attack is not None and self.attack.epicentre >= self.num_nodes:
            raise ValueError(f"attack epicentre {self.attack.epicentre} is not one of "
                             f"the {self.num_nodes} nodes")

    # Derived ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        if self.nodes is not None:
            return self.nodes
        return self.rows * self.cols  # every shape uses rows*cols as n

    @property
    def offered_load(self) -> float:
        """System utilisation: lambda * E[size] / num_nodes.

        1.0 at lambda = nodes/mean — e.g. lambda = 5 for the paper's
        25-node, mean-5 setting.
        """
        return self.arrival_rate * self.task_mean / self.num_nodes

    def with_(self, **kwargs: object) -> "ExperimentConfig":
        """A modified copy (frozen dataclass)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]

    def params(self) -> dict:
        """Self-description embedded in results."""
        out = {
            "protocol": self.protocol,
            "lambda": self.arrival_rate,
            "seed": self.seed,
            "horizon": self.horizon,
            "nodes": self.num_nodes,
            "queue": self.queue_capacity,
            "policy": self.policy,
            "topology": self.topology,
            "ranking": self.protocol_config.ranking_policy,
        }
        if self.fleet is not None:
            out["fleet"] = self.fleet.name
        if self.churn is not None and self.churn.active:
            out["churn_join_rate"] = self.churn.join_rate
            out["churn_leave_rate"] = self.churn.leave_rate
        return out


def paper_config(
    protocol: str,
    arrival_rate: float,
    *,
    seed: int = 1,
    horizon: float = 10_000.0,
    protocol_config: Optional[ProtocolConfig] = None,
) -> ExperimentConfig:
    """The Section 5 setting for one (protocol, lambda) point."""
    return ExperimentConfig(
        protocol=protocol,
        protocol_config=protocol_config or ProtocolConfig(),
        arrival_rate=arrival_rate,
        seed=seed,
        horizon=horizon,
    )
