"""Unit tests for arrival processes."""

import numpy as np
import pytest

from repro.sim.kernel import Simulator
from repro.workload.arrivals import ArrivalGenerator, PoissonArrivals


class TestPoisson:
    def test_rate_matches_mean_gap(self):
        rng = np.random.default_rng(0)
        proc = PoissonArrivals(rate=4.0, rng=rng)
        gaps = [proc.next_gap() for _ in range(4000)]
        assert sum(gaps) / len(gaps) == pytest.approx(0.25, rel=0.1)

    def test_origin_uniform_over_live(self):
        rng = np.random.default_rng(1)
        proc = PoissonArrivals(rate=1.0, rng=rng)
        counts = {n: 0 for n in range(5)}
        for _ in range(5000):
            counts[proc.next_origin(list(range(5)))] += 1
        assert min(counts.values()) > 800

    def test_no_live_nodes_drops(self):
        proc = PoissonArrivals(1.0, np.random.default_rng(0))
        assert proc.next_origin([]) is None

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0, np.random.default_rng(0))


class FixedGap:
    """Arrivals every ``gap`` seconds, cycling round-robin over live nodes."""

    def __init__(self, gap):
        self.gap = gap
        self._i = 0

    def next_gap(self):
        return self.gap

    def next_origin(self, live_nodes):
        if not live_nodes:
            return None
        self._i += 1
        return live_nodes[(self._i - 1) % len(live_nodes)]


class TestGenerator:
    def test_emits_until_horizon(self):
        sim = Simulator(seed=0)
        emitted = []
        gen = ArrivalGenerator(
            sim,
            FixedGap(1.0),
            emitted.append,
            lambda: [0, 1],
            until=5.5,
        )
        sim.run(until=10.0)
        assert gen.generated == 5
        assert emitted == [0, 1, 0, 1, 0]

    def test_stop_halts_emission(self):
        sim = Simulator(seed=0)
        emitted = []
        gen = ArrivalGenerator(
            sim, FixedGap(1.0), emitted.append, lambda: [0]
        )
        sim.at(3.5, gen.stop)
        sim.run(until=10.0)
        assert len(emitted) == 3

    def test_no_live_nodes_counted_dropped(self):
        sim = Simulator(seed=0)
        gen = ArrivalGenerator(
            sim, FixedGap(1.0), lambda o: None, lambda: [],
            until=3.5,
        )
        sim.run(until=10.0)
        assert gen.dropped_no_live_node == 3
        assert gen.generated == 0

    def test_poisson_count_near_expectation(self):
        sim = Simulator(seed=3)
        count = [0]
        ArrivalGenerator(
            sim,
            PoissonArrivals(5.0, sim.streams.stream("arr")),
            lambda o: count.__setitem__(0, count[0] + 1),
            lambda: [0],
            until=1000.0,
        )
        sim.run(until=1000.0)
        assert count[0] == pytest.approx(5000, rel=0.05)
