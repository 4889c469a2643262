"""Figure 9's 20-host cluster testbed: the ``TESTBED`` plan cell.

Section 6's Agile Objects cluster is the simulator with the LAN's
accounting (``repro.experiments.figures.TESTBED``), and its column of
Figure 9 runs through ``run_figure("fig9", ...)`` like every other cell.
"""

import asyncio
from dataclasses import fields

import pytest

from repro.experiments.figures import TESTBED, run_figure
from repro.experiments.runner import build_system
from repro.experiments.store import RunStore
from repro.live import LiveConfig
from repro.live.runtime import LiveRuntime

H = 300.0


@pytest.fixture(scope="module")
def fig9():
    """Both columns at light, moderate and heavy load, simulated once."""
    return run_figure("fig9", (1.0, 2.0, 6.0, 8.0), horizon=H)


class TestConstruction:
    @pytest.fixture(scope="class")
    def system(self):
        return build_system(TESTBED.with_(horizon=H))

    def test_grid_factorisation(self):
        assert (TESTBED.rows, TESTBED.cols) == (4, 5)
        assert TESTBED.num_nodes == 20

    def test_full_mesh_topology(self, system):
        assert system.topo.num_nodes == 20
        assert system.topo.num_links == 20 * 19 // 2

    def test_queue_capacity_is_50(self, system):
        assert all(h.queue.capacity == 50.0 for h in system.hosts.values())

    def test_lan_costs_wired(self, system):
        # an IP-multicast HELP and a switched unicast each cost one message
        charges = []
        transport = system.transport
        on_cost, transport.on_cost = transport.on_cost, lambda k, c: charges.append(c)
        try:
            transport.flood(0, "X", None)
            transport.unicast(0, 7, "X", None)
        finally:
            transport.on_cost = on_cost
        assert charges == [1.0, 1.0]


class TestExecution:
    def test_light_load_admits_everything(self, fig9):
        assert fig9.series["testbed"][0] == pytest.approx(1.0, abs=0.01)

    def test_overload_degrades(self, fig9):
        light, heavy = fig9.series["testbed"][1], fig9.series["testbed"][3]
        assert heavy < light - 0.05

    def test_components_registered_with_naming(self, manual_clock):
        # run live on the testbed's config, the runtime keeps the id of
        # every component still resident at the drain, and no other
        exp = {f.name: getattr(TESTBED, f.name) for f in fields(TESTBED) if f.name != "obs"}
        cfg = LiveConfig(**{**exp, "arrival_rate": 2.0, "horizon": 50.0, "time_scale": 100.0})
        rt = LiveRuntime(cfg)
        report = asyncio.run(rt.run())
        assert report["config"]["nodes"] == 20 and report["drained"]
        resident = {
            t.task_id for h in rt.system.hosts.values() for t in h.queue.resident_tasks()
        }
        assert resident and rt.metrics._settled_ids == resident

    def test_multicast_messages_cheap(self, fig9):
        # on the LAN a HELP flood is one message, not one per link
        testbed, simulation = fig9.raw["testbed"][6.0], fig9.raw["simulation"][6.0]
        assert testbed.messages_total < 100_000
        assert testbed.messages_total < simulation.messages_total

    def test_overrides_via_kwargs(self):
        r = run_figure("fig9", (1.0,), horizon=100.0, seed=9, protocols=("testbed",))
        assert set(r.raw) == {"testbed"}
        params = r.raw["testbed"][1.0].params
        assert (params["seed"], params["horizon"]) == (9, 100.0)

    def test_a_warm_store_replays_both_columns(self, tmp_path):
        cold = run_figure("fig9", rates=(2.0, 5.0), horizon=60.0, store=RunStore(tmp_path))
        store = RunStore(tmp_path)
        warm = run_figure("fig9", rates=(2.0, 5.0), horizon=60.0, store=store)
        assert (store.hits, store.misses) == (4, 0)
        assert warm.series == cold.series
