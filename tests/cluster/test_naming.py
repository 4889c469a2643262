"""Unit tests for the Agile Object naming service (`repro.live.naming`)."""

import pytest

from repro.live.naming import NamingService
from repro.sim.kernel import Simulator


class TestInstantPropagation:
    def test_register_lookup(self):
        sim = Simulator()
        ns = NamingService(sim)
        ns.register("comp-1", 3)
        assert ns.lookup("comp-1") == 3
        assert ns.lookups == 1
        assert len(ns) == 1

    def test_relocation_updates_binding(self):
        sim = Simulator()
        ns = NamingService(sim)
        ns.register("c", 1)
        ns.register("c", 2)
        assert ns.lookup("c") == 2
        assert ns.true_location("c") == 2
        assert ns.updates == 2

    def test_missing_name(self):
        ns = NamingService(Simulator())
        assert ns.lookup("ghost") is None
        assert ns.true_location("ghost") is None

    def test_unregister(self):
        sim = Simulator()
        ns = NamingService(sim)
        ns.register("c", 1)
        ns.unregister("c")
        assert ns.lookup("c") is None

    def test_a_binding_lives_as_long_as_its_component(self):
        # register -> migrate (re-register) -> complete: nothing is left,
        # however often the component moved
        sim = Simulator()
        ns = NamingService(sim)
        ns.register("node/0", 0)
        for host in (1, 2, 3):
            ns.register("task/7", host)
        assert (ns.lookup("task/7"), len(ns), ns.updates) == (3, 2, 4)
        ns.unregister("task/7")
        assert ns.lookup("task/7") is None and ns.true_location("task/7") is None
        assert ns.bindings() == [("node/0", 0)] and ns.components_on(3) == []
        assert ns._newest.keys() == ns._visible.keys() == {"node/0"}
        ns.unregister("task/7")  # idempotent

    def test_components_on_host(self):
        sim = Simulator()
        ns = NamingService(sim)
        ns.register("a", 1)
        ns.register("b", 1)
        ns.register("c", 2)
        assert ns.components_on(1) == ["a", "b"]

    def test_bindings_sorted(self):
        sim = Simulator()
        ns = NamingService(sim)
        ns.register("b", 2)
        ns.register("a", 1)
        assert ns.bindings() == [("a", 1), ("b", 2)]


class TestDelayedPropagation:
    def test_stale_lookup_during_propagation(self):
        sim = Simulator()
        ns = NamingService(sim, propagation_delay=1.0)
        ns.register("c", 1)
        sim.run(until=2.0)
        assert ns.lookup("c") == 1
        # move the component; visible binding lags
        ns.register("c", 2)
        assert ns.lookup("c") == 1          # stale (location elusiveness)
        assert ns.stale_lookups == 1
        sim.run(until=4.0)
        assert ns.lookup("c") == 2
        assert ns.staleness_rate == pytest.approx(1 / 3)

    def test_out_of_order_publishes_keep_newest(self):
        sim = Simulator()
        ns = NamingService(sim, propagation_delay=1.0)
        ns.register("c", 1)
        sim.run(until=0.5)
        ns.register("c", 2)
        sim.run(until=5.0)
        assert ns.lookup("c") == 2

    def test_late_publish_does_not_resurrect_an_unregistered_name(self):
        sim = Simulator()
        ns = NamingService(sim, propagation_delay=1.0)
        ns.register("c", 1)
        sim.run(until=0.5)
        ns.unregister("c")  # the component is gone; its update is in flight
        sim.run(until=5.0)
        assert ns.lookup("c") is None and ns.true_location("c") is None
        assert len(ns) == 0 and ns.bindings() == []
        assert ns.updates == 1  # the counters keep what happened

    def test_staleness_of_live_names_is_unmoved_by_others_leaving(self):
        sim = Simulator()
        ns = NamingService(sim, propagation_delay=1.0)
        ns.register("stays", 1)
        ns.register("goes", 1)
        sim.run(until=2.0)
        ns.register("stays", 2)
        ns.register("goes", 2)
        ns.unregister("goes")
        assert ns.lookup("stays") == 1  # stale: its move is still propagating
        sim.run(until=4.0)
        assert ns.lookup("stays") == 2 and ns.lookup("goes") is None
        assert (ns.stale_lookups, ns.lookups) == (1, 3)
        assert ns.staleness_rate == pytest.approx(1 / 3)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            NamingService(Simulator(), propagation_delay=-1.0)
