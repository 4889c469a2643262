"""LiveRuntime assembly + the ``python -m repro.live`` CLI."""

import asyncio
import json

import pytest

from repro.live import LiveConfig, run_live
from repro.live.__main__ import main


def small_report(**overrides) -> dict:
    base = dict(
        nodes=9,
        arrival_rate=40.0,
        horizon=5.0,
        seed=7,
        time_scale=200.0,
        latency=0.0,
        drain_timeout=30.0,
    )
    base.update(overrides)
    return asyncio.run(run_live(LiveConfig(**base)))


class TestLiveRuntime:
    @pytest.fixture(scope="class")
    def report(self):
        return small_report()

    def test_report_structure(self, report):
        for key in (
            "config",
            "tasks",
            "admission_probability",
            "rollup",
            "latency_ms",
            "throughput",
            "messages",
            "naming",
            "scheduler",
            "drained",
            "clean_shutdown",
            "series",
        ):
            assert key in report, key
        assert report["config"]["backend"] == "inproc"
        assert report["tasks"]["generated"] > 0
        # what the sleeping scheduler is accountable for
        throughput, sched = report["throughput"], report["scheduler"]
        assert 0.0 < throughput["cpu_seconds"]
        assert throughput["cpu_util"] == pytest.approx(
            throughput["cpu_seconds"] / throughput["wall_seconds"]
        )
        assert sched["timer"] in ("timerfd", "call_at")
        assert sched["wakeups"] > 0

    def test_naming_service_is_live(self, report):
        # every node registers at startup; every admission re-registers
        # the task's location — the cluster naming layer, promoted
        assert report["naming"]["bindings"] >= 9
        assert report["naming"]["updates"] >= report["tasks"]["admitted"]

    def test_metrics_registry_sampled_series(self, report):
        # install_run_probes + MetricsRegistry run unchanged over the
        # live scheduler; the sampled series lands in the report
        assert report["series"], "registry produced no series payload"

    def test_report_is_json_serialisable(self, report):
        json.dumps(report, default=str)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LiveConfig(nodes=0)
        with pytest.raises(ValueError):
            LiveConfig(arrival_rate=-1.0)
        with pytest.raises(ValueError):
            LiveConfig(backend="smoke-signals")


class TestCli:
    def test_cli_runs_and_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "--nodes", "9",
                "--rate", "40",
                "--duration", "5",
                "--time-scale", "200",
                "--latency", "0",
                "--seed", "7",
                "--no-series",
                "--require-clean",
                "--output", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["clean_shutdown"] is True
        assert "series" not in report
        # stdout carries the same JSON for piping
        assert json.loads(capsys.readouterr().out)["tasks"]["generated"] > 0

    def test_cli_gate_failure_exits_nonzero(self, capsys):
        code = main(
            [
                "--nodes", "9",
                "--rate", "40",
                "--duration", "5",
                "--time-scale", "200",
                "--latency", "0",
                "--no-series",
                "--min-throughput", "1e12",  # unreachable floor
                "--max-cpu-util", "0",  # unreachable ceiling
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "GATE FAILED: throughput" in err and "GATE FAILED: cpu_util" in err
