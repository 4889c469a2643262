"""Unit tests for experiment configuration."""

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
            assert len(topo.nodes()) >= 15, name

    def test_unknown_unicast_cost_fails_at_construction(self):
        with pytest.raises(ValueError, match="unicast_cost"):
            ExperimentConfig(unicast_cost="psychic")
        for mode in UNICAST_COSTS:
            system = build_system(ExperimentConfig(unicast_cost=mode))
            assert system.transport.cost_model.unicast_mode.value == mode

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
