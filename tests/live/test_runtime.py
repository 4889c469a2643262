"""LiveRuntime assembly + the ``python -m repro.live`` CLI."""

import asyncio
import json

import pytest

from repro.live import LiveConfig, run_live
from repro.live.__main__ import main
from repro.live.naming import NamingService
from repro.live.runtime import LiveRuntime, _LiveMetrics
from repro.live.scheduler import LiveScheduler
from repro.node.task import Task, TaskOutcome, TaskStatus


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
        # every node registers at startup and every admission registers
        # the task's location — the cluster naming layer, promoted — but a
        # binding lives only as long as its task: what is bound at the
        # drain is the nodes plus the tasks still resident
        tasks = report["tasks"]
        resident = tasks["admitted"] - tasks["completed"] - tasks["lost"]
        assert tasks["completed"] > 0
        assert report["naming"]["bindings"] == 9 + resident
        assert report["naming"]["updates"] >= tasks["admitted"]

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


class TestTaskLifetime:
    """What the runtime keeps of a task lasts from its admission to its
    completion or loss, and a task's latency is that of its first decision."""

    def test_evacuated_and_lost_tasks_settle_once_and_leave(self, manual_clock):
        cfg = LiveConfig(nodes=9, arrival_rate=1.4, horizon=300.0, seed=11)
        rt = LiveRuntime(cfg)
        faults = rt.system.faults
        for i, node in enumerate((4, 1, 7, 3)):  # compromised: they evacuate
            faults.schedule_window(60.0 + 40.0 * i, 80.0 + 40.0 * i, node)
        faults.schedule_crash(230.0, 5)  # crashed: its residents are lost
        faults.schedule_recover(240.0, 5)

        first, seen = {}, []
        settle, admitted = rt.metrics._settle, rt.metrics.task_admitted

        def recording_settle(task):
            settle(task)
            assert task.task_id not in first, "settled twice"
            first[task.task_id] = rt.metrics.latencies_ms[-1]

        def recording_admitted(task):
            seen.append(task)
            admitted(task)

        rt.metrics._settle = recording_settle
        rt.metrics.task_admitted = recording_admitted

        async def go():
            report = await rt.run()
            hosts = rt.system.hosts.values()
            resident = {t.task_id for h in hosts for t in h.queue.resident_tasks()}
            # at the drain the set holds the resident ids and only them ...
            assert set(rt.metrics._settled_ids) == resident
            assert len(rt.naming) == 9 + len(resident)
            await rt.sim.run(until=max(h.queue.busy_until for h in hosts) + 0.01)
            return report

        report = asyncio.run(go())
        tasks = report["tasks"]
        assert report["drained"] and tasks["lost"] > 0
        assert rt.metrics.tasks.evacuations > rt.metrics.tasks.evacuation_failures
        evacuated = [t for t in seen if t.outcome is TaskOutcome.EVACUATED]
        lost = [t for t in seen if t.outcome is TaskOutcome.LOST]
        assert evacuated and lost
        # one sample per generated task, whatever happened to it afterwards
        assert report["latency_ms"]["count"] == len(first) == tasks["generated"]
        assert list(rt.metrics.latencies_ms) == list(first.values())
        # ... and every id has left once its task completed
        assert all(t.status is TaskStatus.COMPLETED for t in evacuated)
        assert not rt.metrics._settled_ids and len(rt.naming) == 9

    def test_a_granted_evacuation_rebinds_the_task(self, manual_clock):
        # an evacuation re-admits a resident task without task_admitted;
        # its binding must follow it to the host that granted
        cfg = LiveConfig(nodes=9, arrival_rate=1.4, horizon=300.0, seed=11)
        rt = LiveRuntime(cfg)
        for i, node in enumerate((4, 1, 7, 3)):
            rt.system.faults.schedule_window(60.0 + 40.0 * i, 80.0 + 40.0 * i, node)
        moves, evacuation = [], rt.metrics.evacuation

        def checked_evacuation(task, success):
            evacuation(task, success)
            if success:
                hosts = rt.system.hosts.values()
                resident = sum(len(h.queue.resident_tasks()) for h in hosts)
                bound = rt.naming.true_location(f"task/{task.task_id}")
                moves.append((task.origin, task.admitted_at, bound,
                              len(rt.naming) - 9 - resident))

        rt.metrics.evacuation = checked_evacuation
        assert asyncio.run(rt.run())["drained"]
        assert moves
        for left, new, bound, unaccounted in moves:
            assert bound == new != left and unaccounted == 0

    def test_a_resettlement_keeps_the_latency_of_the_first_decision(self):
        sim = LiveScheduler()
        naming = NamingService(sim)
        metrics = _LiveMetrics(sim, naming)
        task = Task(size=1.0, arrival_time=0.0, origin=0)
        metrics.task_generated()
        task.mark_admitted(2, 0.0, TaskOutcome.MIGRATED)
        metrics.task_admitted(task)
        assert (naming.lookup(f"task/{task.task_id}"), metrics.unsettled) == (2, 0)
        task.mark_lost()  # its host crashed: a second settlement
        metrics.task_lost(task)
        assert len(metrics.latencies_ms) == metrics.latency_hist.total() == 1
        assert metrics.unsettled == 0 and metrics.tasks.lost == 1
        assert len(naming) == 0 and not metrics._settled_ids

    def test_an_orphaned_grant_confirmed_after_completion_binds_nothing(self):
        # the responder admitted and ran the task while the grant was lost;
        # the origin's give-up confirms an admission that is already over
        sim = LiveScheduler()
        naming = NamingService(sim)
        metrics = _LiveMetrics(sim, naming)
        task = Task(size=1.0, arrival_time=0.0, origin=0)
        metrics.task_generated()
        task.mark_admitted(1, 0.0, TaskOutcome.MIGRATED)
        task.mark_completed(1.0)
        metrics.task_completed(task)
        assert metrics.unsettled == 1
        metrics.task_admitted(task)
        assert metrics.unsettled == 0 and len(metrics.latencies_ms) == 1
        assert len(naming) == 0 and not metrics._settled_ids


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
