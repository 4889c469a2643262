"""Tests for result serialisation: the ``RunResult`` codec and the run
store it feeds (``experiments/store.py``), and a run's series files
(``obs/registry.py``)."""

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.store import (
    STORE_FORMAT,
    RunStore,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.sweep import run_sweep

PROTOCOLS, RATES = ["realtor", "push-1"], [3.0, 7.0]
BASE = ExperimentConfig(horizon=100.0)


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    """A store holding the sweep below, written as it ran."""
    return tmp_path_factory.mktemp("store")


@pytest.fixture(scope="module")
def sweep(store_root):
    return run_sweep(PROTOCOLS, RATES, BASE, store=RunStore(store_root))


@pytest.fixture(scope="module")
def loaded(sweep, store_root):
    """The same sweep served from a reopened store: zero simulation."""
    store = RunStore(store_root)
    results = run_sweep(PROTOCOLS, RATES, BASE, store=store)
    assert store.stats()["misses"] == 0
    return results


@pytest.fixture(scope="module")
def obs_result():
    from repro.experiments.runner import run_experiment
    from repro.obs.config import ObsConfig

    cfg = ExperimentConfig(horizon=30.0, obs=ObsConfig())
    return run_experiment(cfg)


class TestRoundTrip:
    def test_result_round_trip(self, sweep):
        original = sweep["realtor"][7.0]
        rebuilt = result_from_dict(result_to_dict(original))
        assert rebuilt == original

    def test_dict_is_json_serialisable(self, sweep):
        text = json.dumps(result_to_dict(sweep["push-1"][3.0]))
        assert "push-1" in text

    def test_missing_field_rejected(self, sweep):
        data = result_to_dict(sweep["realtor"][3.0])
        del data["generated"]
        with pytest.raises(ValueError):
            result_from_dict(data)


class TestSweepFiles:
    """A sweep persists as run-store shards and loads back from them."""

    def test_save_load_round_trip(self, sweep, loaded):
        assert set(loaded) == {"realtor", "push-1"}
        assert set(loaded["realtor"]) == {3.0, 7.0}
        for proto in sweep:
            for rate in sweep[proto]:
                assert loaded[proto][rate] == sweep[proto][rate]

    def test_file_is_plain_json(self, sweep, store_root):
        RunStore(store_root).flush()
        index = json.loads((store_root / "index.json").read_text())
        assert index["format"] == STORE_FORMAT
        lines = [
            json.loads(line)
            for shard in (store_root / "shards").glob("*.jsonl")
            for line in shard.read_text().splitlines()
        ]
        assert len(lines) == len(PROTOCOLS) * len(RATES)
        assert all(set(rec["result"]) == set(result_to_dict(sweep["realtor"][3.0]))
                   for rec in lines)

    def test_wrong_format_rejected(self, tmp_path):
        (tmp_path / "index.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError):
            RunStore(tmp_path)

    def test_figures_work_on_loaded_sweep(self, loaded):
        """A stored sweep regenerates figure tables offline."""
        from repro.experiments.figures import fig5_admission_probability

        result = fig5_admission_probability(
            (3.0, 7.0), protocols=("realtor", "push-1"), raw=loaded
        )
        assert result.series["realtor"]  # projected from disk, no sim runs

    def test_save_is_byte_deterministic(self, sweep, tmp_path):
        def shards(root):
            store = RunStore(root)
            for proto in PROTOCOLS:
                for rate in RATES:
                    cfg = BASE.with_(protocol=proto, arrival_rate=rate)
                    store.put(store.digest(cfg), cfg, sweep[proto][rate])
            return {p.name: p.read_bytes() for p in (root / "shards").glob("*")}

        assert shards(tmp_path / "a") == shards(tmp_path / "b")


class TestCsvRoundTrip:
    """Results reloaded from disk behave exactly like fresh ones."""

    def test_messages_by_kind_key_order_deterministic(self, sweep, loaded):
        """The store canonicalises (``sort_keys=True``): keys come back
        sorted, independent of emission order, with equal values."""
        original = sweep["realtor"][7.0]
        assert original.messages_by_kind  # the run really sent messages
        rebuilt = loaded["realtor"][7.0]
        assert list(rebuilt.messages_by_kind) == sorted(original.messages_by_kind)
        assert rebuilt.messages_by_kind == original.messages_by_kind

    def test_csv_is_byte_deterministic(self, obs_result, tmp_path):
        from repro.obs.registry import save_series_csv

        a = save_series_csv(obs_result.series, tmp_path / "a.csv").read_bytes()
        b = save_series_csv(obs_result.series, tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_report_tables_render_from_loaded_csv(self, sweep, loaded):
        """report.py consumes reloaded results exactly like live ones."""
        from repro.analysis.report import describe_result, figure_table

        live = figure_table(sweep, lambda r: r.admission_probability)
        offline = figure_table(loaded, lambda r: r.admission_probability)
        assert offline == live
        assert describe_result(loaded["realtor"][7.0]) == describe_result(
            sweep["realtor"][7.0]
        )


class TestSeriesField:
    """``RunResult.series`` through every serialisation path."""

    def test_dict_round_trip_keeps_series(self, obs_result):
        rebuilt = result_from_dict(result_to_dict(obs_result))
        assert rebuilt == obs_result
        assert rebuilt.series["series"]["nodes_live"]["t"] == (
            obs_result.series["series"]["nodes_live"]["t"]
        )

    def test_old_record_without_series_loads_as_none(self, sweep):
        # records written before the series field existed must keep loading
        data = result_to_dict(sweep["realtor"][3.0])
        del data["series"]
        rebuilt = result_from_dict(data)
        assert rebuilt.series is None

    def test_csv_round_trip_keeps_series(self, obs_result, tmp_path):
        cfg = ExperimentConfig(horizon=30.0)
        store = RunStore(tmp_path)
        digest = store.digest(cfg)
        store.put(digest, cfg, obs_result)
        assert RunStore(tmp_path).get(digest) == obs_result


class TestSeriesFiles:
    """The trajectory JSONL/CSV exporters behind ``--jsonl``/``--csv``."""

    @pytest.fixture(scope="class")
    def payload(self, obs_result):
        return obs_result.series

    def test_jsonl_round_trip(self, payload, tmp_path):
        from repro.obs.registry import load_series_jsonl, save_series_jsonl

        path = save_series_jsonl(payload, tmp_path / "series.jsonl")
        loaded = load_series_jsonl(path)
        assert sorted(loaded["series"]) == sorted(payload["series"])
        for name, track in payload["series"].items():
            assert loaded["series"][name]["t"] == list(track["t"])
            assert loaded["series"][name]["v"] == list(track["v"])
        assert loaded["ticks"] == payload["ticks"]

    def test_jsonl_is_byte_deterministic(self, payload, tmp_path):
        from repro.obs.registry import save_series_jsonl

        a = save_series_jsonl(payload, tmp_path / "a.jsonl")
        b = save_series_jsonl(payload, tmp_path / "b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_wrong_format_rejected(self, tmp_path):
        from repro.obs.registry import load_series_jsonl

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":"something-else"}\n')
        with pytest.raises(ValueError):
            load_series_jsonl(bad)

    def test_csv_rows_sorted_and_complete(self, payload, tmp_path):
        from repro.obs.registry import save_series_csv

        path = save_series_csv(payload, tmp_path / "series.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,t,v"
        metrics = [line.split(",")[0] for line in lines[1:]]
        assert metrics == sorted(metrics)
        total = sum(len(track["t"]) for track in payload["series"].values())
        assert len(lines) - 1 == total
