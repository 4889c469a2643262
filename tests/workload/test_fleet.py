"""Unit tests for the heterogeneous-fleet axis."""

import pytest

from repro.sim.kernel import Simulator
from repro.workload.fleet import (
    FleetConfig,
    FleetSpec,
    NodeParams,
    draw_value,
    fleet_summary,
    node_params,
)


class TestFleetSpec:
    def test_fixed_needs_one_arg(self):
        spec = FleetSpec("fixed", (7.0,))
        assert draw_value(spec, None) == 7.0
        with pytest.raises(ValueError):
            FleetSpec("fixed", ())

    def test_uniform_bounds_validated(self):
        with pytest.raises(ValueError):
            FleetSpec("uniform", (5.0, 1.0))

    def test_unknown_dist(self):
        with pytest.raises(ValueError):
            FleetSpec("zipf", (1.0,))

    def test_choice_draws_only_listed_values(self):
        spec = FleetSpec("choice", (0.5, 1.0, 2.0))
        rng = Simulator(seed=9).streams.stream("x")
        for _ in range(50):
            assert draw_value(spec, rng) in (0.5, 1.0, 2.0)

    def test_uniform_stays_in_bounds(self):
        spec = FleetSpec("uniform", (60.0, 140.0))
        rng = Simulator(seed=9).streams.stream("x")
        for _ in range(50):
            assert 60.0 <= draw_value(spec, rng) <= 140.0

    def test_lognormal_positive(self):
        spec = FleetSpec("lognormal", (0.0, 0.5))
        rng = Simulator(seed=9).streams.stream("x")
        for _ in range(50):
            assert draw_value(spec, rng) > 0.0


class TestNodeParams:
    def test_none_fleet_is_pure_defaults_and_touches_no_stream(self):
        class Boom:
            def stream(self, name):  # pragma: no cover - must not be called
                raise AssertionError("None fleet must not touch RNG streams")

        params = node_params(
            None, Boom(), 3, default_capacity=100.0, default_threshold=0.9
        )
        assert params == NodeParams(
            capacity=100.0, speed=1.0, threshold=0.9, resource_scale=1.0
        )

    def test_draws_are_per_node_deterministic(self):
        """Same seed, any visit order: node n always gets the same params."""
        fleet = FleetConfig.heterogeneous()
        a = Simulator(seed=77).streams
        b = Simulator(seed=77).streams
        forward = {
            n: node_params(fleet, a, n, default_capacity=100.0,
                           default_threshold=0.9)
            for n in range(20)
        }
        backward = {
            n: node_params(fleet, b, n, default_capacity=100.0,
                           default_threshold=0.9)
            for n in reversed(range(20))
        }
        assert forward == backward

    def test_different_seeds_differ(self):
        fleet = FleetConfig.heterogeneous()
        a = node_params(fleet, Simulator(seed=1).streams, 0,
                        default_capacity=100.0, default_threshold=0.9)
        b = node_params(fleet, Simulator(seed=2).streams, 0,
                        default_capacity=100.0, default_threshold=0.9)
        assert a != b

    def test_clamps(self):
        fleet = FleetConfig(
            capacity=FleetSpec("fixed", (-5.0,)),
            speed=FleetSpec("fixed", (0.0,)),
            threshold=FleetSpec("fixed", (7.0,)),
            resource_scale=FleetSpec("fixed", (-1.0,)),
        )
        params = node_params(fleet, Simulator(seed=1).streams, 0,
                             default_capacity=100.0, default_threshold=0.9)
        assert params.capacity == pytest.approx(1e-3)
        assert params.speed == pytest.approx(1e-3)
        assert params.threshold == pytest.approx(0.999)
        assert params.resource_scale == 0.0

    def test_heterogeneous_preset_shape(self):
        fleet = FleetConfig.heterogeneous()
        assert fleet.name == "heterogeneous"
        params = node_params(fleet, Simulator(seed=5).streams, 0,
                             default_capacity=100.0, default_threshold=0.9)
        assert 60.0 <= params.capacity <= 140.0
        assert params.speed in (0.5, 1.0, 2.0)
        assert 0.85 <= params.threshold <= 0.95


class TestFleetSummary:
    def test_mean_and_cv(self):
        params = [
            NodeParams(100.0, 1.0, 0.9, 1.0),
            NodeParams(100.0, 2.0, 0.9, 1.0),
        ]
        summary = fleet_summary(params)
        assert summary["fleet_capacity_mean"] == pytest.approx(100.0)
        assert summary["fleet_capacity_cv"] == pytest.approx(0.0)
        assert summary["fleet_speed_mean"] == pytest.approx(1.5)
        assert summary["fleet_speed_cv"] > 0.0

    def test_empty(self):
        assert fleet_summary([]) == {}


class TestAgentThreshold:
    """A node's agent judges availability at the threshold its monitor
    crosses at, which a heterogeneous fleet draws per node."""

    def test_agent_judges_by_its_nodes_drawn_threshold(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import build_system
        from repro.node.task import Task

        system = build_system(
            ExperimentConfig(protocol="realtor", seed=3, fleet=FleetConfig.heterogeneous())
        )
        nid = max(
            system.hosts,
            key=lambda n: abs(system.hosts[n].monitor.threshold - 0.9),
        )
        host, agent = system.hosts[nid], system.agents[nid]
        drawn = host.monitor.threshold
        assert abs(drawn - 0.9) > 0.01
        assert agent.threshold == drawn
        assert agent.pledges.threshold == drawn
        # an arrival that lands between the two levels: over the node's
        # own threshold exactly when the drawn level is under 0.9
        mid = (drawn + 0.9) / 2
        task = Task(size=mid * host.queue.capacity, arrival_time=0.0, origin=nid)
        assert agent.usage_with(task) == pytest.approx(mid)
        assert agent.would_exceed_threshold(task) == (drawn < mid)
