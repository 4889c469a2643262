"""Unit tests for experiment configuration."""

import dataclasses

import pytest

from repro.experiments.config import (
    PAPER_LAMBDAS,
    TOPOLOGIES,
    UNICAST_COSTS,
    ExperimentConfig,
    paper_config,
)
from repro.experiments.runner import build_system
from repro.protocols.base import ProtocolConfig
from repro.protocols.registry import protocol_names
from repro.workload.attack import AttackConfig


#: every value a run can be given: a new setting shows up as an edit here
SETTABLE = {
    "ExperimentConfig": [
        "arrival_rate", "attack", "cap_task_sizes", "churn", "cols",
        "deadline_factor", "demand_means", "extra_resources",
        "fixed_unicast_cost", "fleet", "flood_cost_override", "horizon",
        "impairments", "migration_retry_budget", "nodes", "obs",
        "per_hop_latency", "policy", "prime_views", "protocol",
        "protocol_config", "queue_capacity", "rows", "secure_task_fraction",
        "security_levels", "seed", "task_mean", "topology", "trace",
        "unicast_cost",
    ],
    "ProtocolConfig": [
        "alpha", "beta", "help_retry_budget", "initial_help_interval",
        "membership_ttl", "push_interval", "ranking_policy",
        "response_timeout", "scope", "threshold", "upper_limit",
    ],
    "LiveConfig": [
        "backend", "drain_timeout", "latency", "progress_interval", "time_scale",
    ],
    "UNICAST_COSTS": ["fixed", "hops"],
}


def test_the_settable_surface_is_pinned():
    from repro.live.runtime import LiveConfig

    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert {
        "ExperimentConfig": sorted(names(ExperimentConfig)),
        "ProtocolConfig": sorted(names(ProtocolConfig)),
        "LiveConfig": sorted(names(LiveConfig) - names(ExperimentConfig)),
        "UNICAST_COSTS": sorted(UNICAST_COSTS),
    } == SETTABLE


class TestExperimentConfig:
    def test_paper_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.queue_capacity == 100.0
        assert cfg.task_mean == 5.0
        assert cfg.rows == cfg.cols == 5
        assert cfg.horizon == 10_000.0
        assert cfg.unicast_cost == "fixed"
        assert cfg.fixed_unicast_cost == 4.0
        assert cfg.policy == "one-shot"

    def test_offered_load(self):
        cfg = ExperimentConfig(arrival_rate=5.0)
        assert cfg.offered_load == pytest.approx(1.0)  # the saturation knee
        assert ExperimentConfig(arrival_rate=10.0).offered_load == pytest.approx(2.0)

    def test_with_copy_immutable(self):
        cfg = ExperimentConfig()
        other = cfg.with_(arrival_rate=7.0)
        assert other.arrival_rate == 7.0
        assert cfg.arrival_rate == 5.0

    def test_params_self_describing(self):
        p = ExperimentConfig(protocol="push-1", arrival_rate=3.0, seed=9).params()
        assert p["protocol"] == "push-1"
        assert p["lambda"] == 3.0
        assert p["seed"] == 9
        assert p["nodes"] == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(arrival_rate=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(horizon=-1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(rows=0)

    def test_unknown_topology_fails_at_construction(self):
        # not first inside build_system, i.e. inside a pool worker
        with pytest.raises(ValueError, match="topology"):
            ExperimentConfig(topology="moebius")
        # the accepted names are exactly the ones the builder dispatches on
        for name in TOPOLOGIES:
            topo = build_system(ExperimentConfig(topology=name, nodes=16)).topo
            assert len(topo.nodes()) == 16, name

    def test_unknown_unicast_cost_fails_at_construction(self):
        with pytest.raises(ValueError, match="unicast_cost"):
            ExperimentConfig(unicast_cost="psychic")
        for mode in UNICAST_COSTS:
            system = build_system(ExperimentConfig(unicast_cost=mode))
            assert system.transport.cost_model.unicast_mode.value == mode

    @pytest.mark.parametrize(
        "field, value",
        [
            ("protocol", "realtr"),
            ("policy", "one-shoot"),
            ("per_hop_latency", -1.0),
            ("fixed_unicast_cost", -4.0),
            ("flood_cost_override", -1.0),
        ],
    )
    def test_values_that_would_fail_later_fail_at_construction(self, field, value):
        # not inside build_system (a pool worker), at the first send, or never
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize(
        "attack",
        [
            dict(dwell=0.0),
            dict(victims=0),
            dict(kind="region", radius=-1),
            dict(kind="random", mtbf=-1.0),
            dict(kind="flood"),
        ],
        ids=["dwell", "victims", "radius", "mtbf", "kind"],
    )
    def test_an_attack_that_would_fail_later_fails_at_construction(self, attack):
        with pytest.raises(ValueError):
            AttackConfig(**attack)

    def test_an_attack_epicentre_must_be_a_node(self):
        build_system(ExperimentConfig(attack=AttackConfig(kind="region", epicentre=24)))
        with pytest.raises(ValueError, match="epicentre"):
            ExperimentConfig(attack=AttackConfig(kind="region", epicentre=99))

    def test_accepted_names_are_the_builders(self):
        # the registry's aliases and make_policy's grammar, nothing narrower
        for protocol in ("REALTOR-100", "anti-entropy", "null", *protocol_names()):
            ExperimentConfig(protocol=protocol)
        for policy in ("oneshot", "3-try", "random", "random-2"):
            build_system(ExperimentConfig(policy=policy))

    def test_paper_lambda_sweep(self):
        assert PAPER_LAMBDAS[0] == 1.0
        assert PAPER_LAMBDAS[-1] == 10.0
        assert list(PAPER_LAMBDAS) == sorted(PAPER_LAMBDAS)


class TestPaperConfig:
    def test_builds_section5_point(self):
        cfg = paper_config("realtor", 6.0, seed=3, horizon=500.0)
        assert cfg.protocol == "realtor"
        assert cfg.arrival_rate == 6.0
        assert cfg.seed == 3
        assert cfg.topology == "mesh"

    def test_custom_protocol_config(self):
        pc = ProtocolConfig(threshold=0.8)
        cfg = paper_config("realtor", 5.0, protocol_config=pc)
        assert cfg.protocol_config.threshold == 0.8
