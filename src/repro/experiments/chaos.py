"""Chaos harness: attacks composed with network impairments.

The survivability figures stress the *node* fault model; this module
stresses the *message* fault model on top of it — the missing scenario
class for a paper whose premise is operating through degradation.  A
:func:`loss_sweep` runs the same seeded attack scenario across a grid of
per-link loss rates (0–20% by default) and reports how admission, task
loss and the protocols' defensive counters (HELP retries, migration
fallbacks) degrade.

Everything is deterministic per seed: the attack plan is derived from a
dedicated substream of the config seed (or, for drivers that predate the
spec, from the kernel's named ``"attack"`` stream — see
:attr:`ChaosSpec.rng_stream`), impairment draws come from the
transport's named ``"impairments"`` stream, and the execution unit is a
plain picklable (config, spec) cell run through the shared
:func:`~repro.experiments.executor.execute_plan` — so chaos grids get
serial==parallel determinism, store caching and resume exactly like the
clean sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..metrics.collector import RunResult
from ..network.impairments import ImpairmentConfig
from ..network.routing import Router
from ..network.topology import Topology
from ..workload.attack import AttackPlan, RandomFailures, RegionAttack, SweepAttack
from .config import ExperimentConfig
from .executor import execute_plan
from .plan import ExperimentPlan, PlanCell
from .runner import _attach_flight_dump, _build_topology, build_system, run_experiment
from .store import canonical_rate

if TYPE_CHECKING:  # pragma: no cover
    from .store import RunStore

__all__ = [
    "ChaosSpec",
    "make_attack",
    "run_spec",
    "run_chaos",
    "loss_sweep",
    "loss_sweep_plan",
    "degradation_table",
    "DEFAULT_LOSS_RATES",
]

#: the graceful-degradation grid: clean baseline up to a harsh 20%
DEFAULT_LOSS_RATES: Tuple[float, ...] = (0.0, 0.01, 0.02, 0.05, 0.10, 0.20)

#: substream tag mixed with the config seed for attack-plan draws, so
#: attack randomness never aliases the kernel's named streams
_ATTACK_STREAM = 0xA77AC


@dataclass(frozen=True)
class ChaosSpec:
    """Which attack rides along with the impairments (all seeded)."""

    attack: str = "sweep"        # none | sweep | region | random
    start: float = 100.0         # first transition time (sweep/region)
    dwell: float = 50.0          # per-victim hold (sweep)
    victims: int = 5             # sweep length (clamped to #nodes)
    epicentre: int = 0           # region centre node
    radius: int = 1              # region hop radius
    duration: float = 100.0      # region outage length
    mtbf: float = 400.0          # random-failure mean time between failures
    mttr: float = 50.0           # random-failure mean repair time
    #: where attack-plan randomness comes from: "dedicated" mixes the
    #: config seed with a private tag (the chaos default, immune to
    #: kernel stream usage); "kernel" draws from the simulator's named
    #: "attack" stream (the A4 ablation's historical seeding, preserved
    #: so its tables stay bit-identical through the plan refactor)
    rng_stream: str = "dedicated"

    def __post_init__(self) -> None:
        if self.attack not in ("none", "sweep", "region", "random"):
            raise ValueError(f"unknown attack: {self.attack!r}")
        if self.rng_stream not in ("dedicated", "kernel"):
            raise ValueError(f"unknown rng_stream: {self.rng_stream!r}")


def _materialise(
    spec: ChaosSpec,
    topo: Topology,
    horizon: float,
    make_rng: Callable[[], np.random.Generator],
) -> Optional[AttackPlan]:
    """Expand ``spec`` against a concrete topology (rng drawn lazily)."""
    if spec.attack == "none":
        return None
    nodes = topo.nodes()
    if spec.attack == "sweep":
        return SweepAttack(
            nodes,
            start=spec.start,
            dwell=spec.dwell,
            victims=min(spec.victims, len(nodes)),
            rng=make_rng(),
        ).plan()
    if spec.attack == "region":
        return RegionAttack(
            Router(topo),
            spec.epicentre,
            radius=spec.radius,
            start=spec.start,
            duration=spec.duration,
        ).plan()
    return RandomFailures(
        nodes, horizon=horizon, mtbf=spec.mtbf, mttr=spec.mttr, rng=make_rng()
    ).plan()


def make_attack(cfg: ExperimentConfig, spec: ChaosSpec) -> Optional[AttackPlan]:
    """Materialise ``spec`` against ``cfg``'s topology, seeded by ``cfg.seed``."""
    return _materialise(
        spec,
        _build_topology(cfg),
        cfg.horizon,
        lambda: np.random.default_rng([cfg.seed, _ATTACK_STREAM]),
    )


def run_spec(cfg: ExperimentConfig, spec: ChaosSpec) -> RunResult:
    """One (config, spec) cell — the executor's chaos entry point."""
    if spec.attack == "none":
        return run_experiment(cfg)
    if spec.rng_stream == "kernel":
        system = build_system(cfg)
        attack = _materialise(
            spec,
            system.topo,
            cfg.horizon,
            lambda: system.sim.streams.stream("attack"),
        )
        attack.install(system.faults)
        try:
            system.run()
        except Exception as exc:
            _attach_flight_dump(system, exc)
            raise
        return system.result()
    return run_experiment(cfg, make_attack(cfg, spec))


def run_chaos(cfg: ExperimentConfig, spec: ChaosSpec = ChaosSpec()) -> RunResult:
    """One attack-plus-impairments run (spec defaults to the sweep attack)."""
    return run_spec(cfg, spec)


def loss_sweep_plan(
    base: ExperimentConfig,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    *,
    spec: ChaosSpec = ChaosSpec(),
) -> ExperimentPlan:
    """The loss-rate grid as a plan (keys: canonical loss rates)."""
    template = base.impairments if base.impairments is not None else ImpairmentConfig()
    cells = []
    for rate in loss_rates:
        rate_c = canonical_rate(rate)
        cells.append(
            PlanCell(
                key=(rate_c,),
                config=base.with_(impairments=template.with_(loss_rate=rate_c)),
                spec=spec,
            )
        )

    def reduce(plan: ExperimentPlan, results) -> Dict[float, RunResult]:
        return {cell.key[0]: res for cell, res in zip(plan.cells, results)}

    return ExperimentPlan("loss-sweep", tuple(cells), reduce)


def loss_sweep(
    base: ExperimentConfig,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    *,
    spec: ChaosSpec = ChaosSpec(),
    parallel: bool = False,
    max_workers: Optional[int] = None,
    store: Optional["RunStore"] = None,
    force: bool = False,
) -> Dict[float, RunResult]:
    """The same attack scenario across a grid of per-link loss rates.

    ``base.impairments`` (or a fresh :class:`ImpairmentConfig`) is the
    template — jitter/duplication/reorder knobs carry across the sweep
    and only ``loss_rate`` varies.  Rate ``0.0`` with no other knobs
    leaves the impairment hook uninstalled entirely: the clean baseline
    is byte-identical to a non-chaos run of the same config.
    """
    plan = loss_sweep_plan(base, loss_rates, spec=spec)
    results = execute_plan(
        plan,
        store=store,
        force=force,
        parallel=parallel,
        max_workers=max_workers,
    )
    return plan.reduce(results)  # type: ignore[return-value]


def degradation_table(results: Dict[float, RunResult]) -> str:
    """Render a loss-rate sweep as the graceful-degradation table."""
    from ..analysis.report import format_table

    rows = []
    for rate in sorted(results):
        res = results[rate]
        extra = res.extra
        rows.append(
            [
                f"{rate:.0%}",
                res.admission_probability,
                res.lost,
                extra.get("impairment_dropped", 0.0),
                extra.get("help_retries", 0.0),
                extra.get("migration_fallbacks", 0.0),
            ]
        )
    return format_table(
        ["loss", "adm", "tasks lost", "msgs dropped", "help retries", "fallbacks"],
        rows,
    )
