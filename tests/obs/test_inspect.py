"""Tests for the RunStore inspector and its CLI.

A module-scoped store is populated once with two obs-enabled runs; every
report/CLI test then reads from that warm store.  The zero-simulation
tests poison the simulator to prove no report path re-runs anything.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import execute_plan
from repro.experiments.plan import sweep_plan
from repro.experiments.store import RunStore
from repro.obs.registry import load_series_jsonl
from repro.obs.__main__ import main as cli_main
from repro.obs.config import ObsConfig
from repro.obs.inspect import (
    diff_report,
    load_runs,
    run_report,
    select_entry,
    summarize,
    timeline_report,
)


BASE = ExperimentConfig(
    protocol="realtor",
    nodes=25,
    topology="mesh",
    arrival_rate=3.0,
    horizon=30.0,
    seed=7,
    obs=ObsConfig(),
)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    plan = sweep_plan(["realtor"], [3.0, 5.0], BASE)
    execute_plan(plan, store=RunStore(root))
    return root


@pytest.fixture(scope="module")
def entries(store_dir):
    return load_runs(store_dir)


class TestLoadAndSelect:
    def test_load_runs_typed_and_sorted(self, entries):
        assert len(entries) == 2
        assert [e.rate for e in entries] == [3.0, 5.0]
        for e in entries:
            assert e.protocol == "realtor"
            assert e.seed == 7
            assert e.series is not None
            arrays = e.series_arrays()
            assert "nodes_live" in arrays
            t, v = arrays["nodes_live"]
            assert t[-1] == BASE.horizon

    def test_select_by_index_and_digest_prefix(self, entries):
        assert select_entry(entries, "#1") is entries[1]
        assert select_entry(entries, entries[0].digest[:10]) is entries[0]

    def test_select_errors(self, entries):
        with pytest.raises(ValueError):
            select_entry(entries, "#9")
        with pytest.raises(ValueError):
            select_entry(entries, "#nope")
        with pytest.raises(ValueError):
            select_entry(entries, "zzzz")


class TestReports:
    def test_summarize_lists_both_runs(self, entries):
        text = summarize(entries)
        assert "#0" in text and "#1" in text
        for e in entries:
            assert e.digest[:10] in text
        assert "yes" in text  # series column

    def test_summarize_empty(self):
        assert "empty" in summarize([])

    def test_run_report_sections(self, entries):
        text = run_report(entries[0])
        assert "survivability trajectory" in text
        assert "task flow" in text
        assert "degradation by window" in text
        assert "admission_prob" in text

    def test_run_report_without_series(self, entries):
        import dataclasses

        bare = dataclasses.replace(
            entries[0],
            result=dataclasses.replace(entries[0].result, series=None),
        )
        text = run_report(bare)
        assert "no trajectory series recorded" in text

    def test_diff_report_shows_rate_delta(self, entries):
        text = diff_report(entries[0], entries[1])
        assert "parameter differences" in text
        assert "lambda" in text
        assert "generated" in text

    def test_timeline_report_strips(self, entries):
        text = timeline_report(
            entries[0], metrics=["nodes_live", "tasks_completed"], width=40
        )
        assert "nodes_live" in text
        assert "tasks_completed" in text
        assert "(t)" in text

    def test_timeline_unknown_metric_raises(self, entries):
        with pytest.raises(ValueError):
            timeline_report(entries[0], metrics=["no_such_metric"])


class TestCli:
    def test_inspect_summary(self, store_dir, capsys):
        assert cli_main(["inspect", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "#0" in out and "#1" in out

    def test_inspect_run_with_exports(self, store_dir, tmp_path, capsys):
        jsonl = tmp_path / "series.jsonl"
        csv_path = tmp_path / "series.csv"
        report = tmp_path / "report.txt"
        rc = cli_main(
            [
                "inspect",
                "--store", str(store_dir),
                "--run", "#0",
                "--jsonl", str(jsonl),
                "--csv", str(csv_path),
                "--report", str(report),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "degradation by window" in out
        assert report.read_text().strip() in out or report.exists()
        # JSONL export round-trips through the loader
        loaded = load_series_jsonl(jsonl)
        entry = load_runs(store_dir)[0]
        want = entry.series["series"]["nodes_live"]
        got = loaded["series"]["nodes_live"]
        assert got["t"] == list(want["t"])
        assert got["v"] == list(want["v"])
        # CSV is flat metric,t,v with a header
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "metric,t,v"
        assert any(line.startswith("nodes_live,") for line in lines)

    def test_diff_subcommand(self, store_dir, capsys):
        assert cli_main(["diff", "--store", str(store_dir), "#0", "#1"]) == 0
        assert "lambda" in capsys.readouterr().out

    def test_timeline_subcommand(self, store_dir, capsys):
        rc = cli_main(
            [
                "timeline",
                "--store", str(store_dir),
                "--run", "#1",
                "--metrics", "nodes_live,queue_usage_mean",
            ]
        )
        assert rc == 0
        assert "nodes_live" in capsys.readouterr().out

    def test_bad_run_token_exits_2(self, store_dir, capsys):
        rc = cli_main(["inspect", "--store", str(store_dir), "--run", "zz"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_timeline_without_inputs_exits_2(self, capsys):
        assert cli_main(["timeline"]) == 2
        assert "error:" in capsys.readouterr().err


class TestZeroSimulation:
    def test_reports_never_touch_the_simulator(
        self, store_dir, monkeypatch, capsys
    ):
        # poison every simulation entry point: if any inspector path tried
        # to (re)run an experiment, these would detonate
        import repro.experiments.executor as executor_mod
        import repro.experiments.runner as runner_mod
        from repro.sim.kernel import Simulator

        def boom(*args, **kwargs):
            raise AssertionError("inspector must not simulate")

        monkeypatch.setattr(Simulator, "run", boom)
        monkeypatch.setattr(runner_mod, "run_experiment", boom)
        monkeypatch.setattr(executor_mod, "run_experiment", boom)

        entries = load_runs(store_dir)
        run_report(entries[0])
        diff_report(entries[0], entries[1])
        timeline_report(entries[1], metrics=["nodes_live"])
        assert cli_main(["inspect", "--store", str(store_dir)]) == 0
        assert (
            cli_main(["inspect", "--store", str(store_dir), "--run", "#0"]) == 0
        )
        capsys.readouterr()

    def test_second_execute_plan_is_all_cache_hits(self, store_dir):
        plan = sweep_plan(["realtor"], [3.0, 5.0], BASE)
        store = RunStore(store_dir)
        before = store.stats()
        results = execute_plan(plan, store=store)
        assert len(results) == 2
        assert store.stats()["hits"] == before.get("hits", 0) + 2
