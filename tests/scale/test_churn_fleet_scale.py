"""2500-node heterogeneous-fleet churn scenario: grouped ≡ one by one.

The acceptance scenario for the fleet/churn axes at scale: a 50x50 torus
with per-node capacity/speed/threshold draws and live join/leave churn
must produce the identical event trace and run summary whether the
transport posts a fan-out's same-instant deliveries as one event (the
default) or one event per delivery, as the live wire does.  This is the
same observational-equivalence gate the plain fast-path suite applies,
extended to the new axes.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.workload.churn import ChurnConfig
from repro.workload.fleet import FleetConfig
from tests.oracles import group_sizes, post_one_by_one

NODES = 2500

CFG = ExperimentConfig(
    protocol="realtor",
    topology="torus",
    nodes=NODES,
    arrival_rate=500.0,  # offered load 1.0 at task mean 5: queues cross
    horizon=10.0,  # their thresholds and HELP rounds run from t ~ 4
    seed=13,
    trace=True,
    fleet=FleetConfig.heterogeneous(),
    churn=ChurnConfig(join_rate=1.0, leave_rate=0.6),
)


def _traced_run(cfg: ExperimentConfig, *, grouped: bool):
    """(trace, result, events_executed, group sizes) of one run."""
    system = build_system(cfg)
    if grouped:
        sizes = group_sizes(system.transport)
    else:
        post_one_by_one(system.transport)
        sizes = []
    system.run()
    trace = [
        (rec.time, rec.category, tuple(sorted(rec.payload.items())))
        for rec in system.sim.trace.records
    ]
    return trace, dataclasses.asdict(system.result()), system.sim.events_executed, sizes


class TestHeterogeneousChurnAt2500:
    def test_scalar_and_batched_loops_identical(self):
        grouped = _traced_run(CFG, grouped=True)
        reference = _traced_run(CFG, grouped=False)
        assert grouped[0] == reference[0]
        assert grouped[1] == reference[1]
        assert reference[2] - grouped[2] == sum(n - 1 for n in grouped[3])
        # the scenario must actually exercise both axes and grouped
        # delivery, not vacuously pass
        extra = grouped[1]["extra"]
        assert extra["churn_scheduled"] > 0
        assert extra["fleet_speed_cv"] > 0.0
        assert grouped[1]["messages_by_kind"]
        assert max(grouped[3]) > 1

    def test_fleet_materialisation_is_node_keyed(self):
        """Fleet draws come from per-node substreams: the same node gets
        the same parameters in two independent builds."""
        a = build_system(CFG).fleet_params
        b = build_system(CFG).fleet_params
        assert a == b
        assert len(a) >= NODES
