"""One assembly path: the live runtime holds the System the simulator builds.

``LiveRuntime`` hands :func:`repro.experiments.runner.assemble` a live
scheduler and a live transport factory; everything else is the code
``build_system`` runs.  These tests pin that from the outside: same
seed, same config axes => the same per-node stacks and the same
generated workload (arrival *instants* are wall-clock live and are not
compared), axes the old hand-written live assembly and send path could
not express (and per-hop latency, which needed every wire delay on the
scheduler's agenda) run to a clean drain, and the axes the live runtime
cannot honour are refused by name.
"""

import asyncio
import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import System, build_system, run_experiment
from repro.live import LiveConfig, LiveRuntime
from repro.network.impairments import ImpairmentConfig
from repro.protocols.base import ProtocolConfig
from repro.workload.churn import ChurnConfig
from repro.workload.fleet import FleetConfig

AXES = dict(
    protocol="realtor",
    nodes=16,
    topology="torus",
    arrival_rate=8.0,
    horizon=40.0,
    seed=5,
    policy="2-try",
    fleet=FleetConfig.heterogeneous(),
)


def node_stacks(system: System) -> dict:
    out = {}
    for nid, host in system.hosts.items():
        agent = system.agents[nid]
        observer = system.admissions[nid].on_request_observed
        out[nid] = (
            host.queue.capacity,
            host.monitor.threshold,
            host.queue.speed,
            type(agent),
            observer is not None and observer.__self__ is agent.pledges,
        )
    return out


def first_tasks(system: System, n: int) -> list:
    """Fire the arrival pump by hand: (task_id, origin, size) of ``n`` tasks."""
    seen = []
    system.coordinator.place_task = lambda t: seen.append((t.task_id, t.origin, t.size))
    for _ in range(n):
        system.generator._fire()
    return seen


class TestParity:
    def test_sim_and_live_assemble_the_same_system(self):
        sim = build_system(ExperimentConfig(**AXES))
        live = LiveRuntime(LiveConfig(**AXES)).system
        assert isinstance(live, System)
        assert node_stacks(live) == node_stacks(sim)
        assert len({stack[:3] for stack in node_stacks(sim).values()}) > 1
        assert live.fleet_params == sim.fleet_params
        assert type(live.coordinator.policy) is type(sim.coordinator.policy)
        assert live.coordinator.policy.k == sim.coordinator.policy.k == 2
        assert sorted(live.topo.links()) == sorted(sim.topo.links())
        assert first_tasks(live, 200) == first_tasks(sim, 200)

    def test_live_config_declares_only_live_fields(self):
        base = {f.name for f in dataclasses.fields(ExperimentConfig)}
        own = {f.name for f in dataclasses.fields(LiveConfig)} - base
        assert own == {
            "time_scale", "backend", "latency", "drain_timeout", "progress_interval",
        }
        # the inherited defaults that differ live, and nothing else
        sim, live = ExperimentConfig(), LiveConfig()
        differ = {n for n in base if getattr(sim, n) != getattr(live, n)}
        assert differ == {
            "nodes", "arrival_rate", "horizon", "seed",
            "fixed_unicast_cost", "flood_cost_override", "obs",
        }
        assert live.obs.sample_interval == 1.0 and live.obs.agent_stride == 4


DRAIN = dict(
    nodes=16, arrival_rate=60.0, horizon=5.0, seed=3, time_scale=200.0, latency=0.0
)
#: lossy runs wait out 5 s reply timeouts: at this scale one is 200 ms of
#: wall clock, far beyond a scheduling stall of the test machine
LOSSY = dict(
    impairments=ImpairmentConfig(loss_rate=0.05), policy="3-try", time_scale=25.0
)


def migrates(rt, report, charges):
    assert report["tasks"]["admitted_migrated"] > 0
    assert report["config"]["topology"] == "scale-free"


def charges_whole_hop_counts(rt, report, charges):
    # floods cost the LAN's 1.0, so only a unicast can exceed it; the
    # 4x4 mesh has diameter 6
    assert all(cost == int(cost) and 1 <= cost <= 6 for _kind, cost in charges)
    assert any(cost > 1 for _kind, cost in charges)
    assert rt.transport.live_router().rows_computed > 0


def loses_messages_like_the_simulator(rt, report, charges):
    assert report["messages"]["dropped"] > 0
    shared = {f.name: getattr(rt.cfg, f.name) for f in dataclasses.fields(ExperimentConfig)}
    assert report["tasks"]["generated"] == run_experiment(ExperimentConfig(**shared)).generated


def settles_slower_than_the_route(rt, report, charges):
    # a migration is at least a request and a reply over one hop each,
    # in wall milliseconds at this input's scale of 100
    assert report["tasks"]["admitted_migrated"] > 0
    assert report["latency_ms"]["max"] >= 2 * 0.05 * 1000.0 / 100.0


#: (what the input exercises, config axes, what to check beyond a clean drain)
DRAIN_INPUTS = [
    (
        "scale-free overlay, 3-try, retry budget, deadlines",
        dict(
            topology="scale-free",
            policy="3-try",
            migration_retry_budget=1,
            deadline_factor=10.0,
        ),
        migrates,
    ),
    (
        "hop-count charges",
        dict(
            topology="mesh",
            unicast_cost="hops",
            protocol_config=ProtocolConfig(scope="network"),
        ),
        charges_whole_hop_counts,
    ),
    (
        "per-hop latency on a ring, inproc",
        dict(topology="ring", per_hop_latency=0.05, time_scale=100.0, latency=None),
        settles_slower_than_the_route,
    ),
    (
        "per-hop latency on a ring, udp",
        dict(topology="ring", per_hop_latency=0.05, time_scale=100.0, backend="udp"),
        settles_slower_than_the_route,
    ),
    ("5% loss, inproc", dict(LOSSY, backend="inproc"), loses_messages_like_the_simulator),
    ("5% loss, udp", dict(LOSSY, backend="udp"), loses_messages_like_the_simulator),
]


class TestSharedAxesRunLive:
    def test_axis_the_old_live_assembly_lacked_drains_clean(self):
        for what, axes, check in DRAIN_INPUTS:
            rt = LiveRuntime(LiveConfig(**{**DRAIN, **axes}))
            charges = []
            charge = rt.transport.on_cost
            rt.transport.on_cost = lambda kind, cost: (
                charges.append((kind, cost)), charge(kind, cost)
            )
            report = asyncio.run(rt.run())
            tasks = report["tasks"]
            assert tasks["generated"] > 100, what
            assert tasks["admitted"] + tasks["rejected"] == tasks["generated"], what
            assert report["drained"] and report["clean_shutdown"], what
            check(rt, report, charges)


class TestRejectedAxes:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("churn", ChurnConfig(join_rate=0.1, leave_rate=0.1)),
            ("obs", None),
        ],
    )
    def test_axis_the_live_transport_cannot_honour_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            LiveConfig(**{field: value})

    def test_inert_values_of_those_axes_pass(self):
        LiveConfig(churn=ChurnConfig())
