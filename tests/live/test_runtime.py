"""LiveRuntime assembly + the ``python -m repro.live`` CLI."""

import asyncio
import dataclasses
import json

import pytest

import repro.live.__main__ as cli
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.live import LiveConfig
from repro.live.__main__ import main
from repro.live.runtime import LiveRuntime, _LiveMetrics
from repro.live.scheduler import LiveScheduler
from repro.node.task import Task, TaskOutcome, TaskStatus
from repro.obs.config import ObsConfig
from repro.obs.registry import MetricsRegistry
from repro.workload.attack import AttackConfig


class TestLiveRuntime:
    @pytest.fixture(scope="class")
    def run(self):
        rt = LiveRuntime(LiveConfig(
            nodes=9, arrival_rate=40.0, horizon=5.0, seed=7, time_scale=200.0,
            latency=0.0, drain_timeout=30.0,
        ))
        return rt, asyncio.run(rt.run())

    @pytest.fixture(scope="class")
    def report(self, run):
        return run[1]

    def test_report_structure(self, report):
        for key in (
            "config",
            "tasks",
            "admission_probability",
            "rollup",
            "latency_ms",
            "throughput",
            "messages",
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

    def test_naming_service_is_live(self, run):
        # a task's id is kept only while the task is resident: what is
        # kept at the drain is the ids of the tasks still resident
        rt, report = run
        tasks = report["tasks"]
        resident = tasks["admitted"] - tasks["completed"] - tasks["lost"]
        assert tasks["completed"] > 0
        assert len(rt.metrics._settled_ids) == resident
        assert rt.metrics._settled_ids == {
            t.task_id for h in rt.system.hosts.values()
            for t in h.queue.resident_tasks()
        }

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
        # not at run(), with the udp endpoints up, or at the first send
        with pytest.raises(ValueError, match="progress_interval"):
            LiveConfig(progress_interval=0.0)
        with pytest.raises(ValueError, match="latency"):
            LiveConfig(latency=-0.001)

    def test_a_raising_callback_propagates_and_closes_the_endpoints(self):
        rt = LiveRuntime(LiveConfig(
            nodes=9, arrival_rate=40.0, horizon=5.0, seed=7, time_scale=200.0,
            backend="udp",
        ))

        def boom():
            raise RuntimeError("callback failure")

        rt.sim.at(2.5, boom)
        with pytest.raises(RuntimeError, match="callback failure"):
            asyncio.run(rt.run())
        assert rt.transport.node_task_count == 0

    def test_an_attack_runs_live(self, manual_clock):
        # assemble installs cfg.attack on the live clock as on the
        # simulator's: the sweep's victims evacuate, the run drains clean
        rt = LiveRuntime(LiveConfig(
            nodes=9, arrival_rate=1.4, horizon=300.0, seed=11,
            attack=AttackConfig(kind="sweep", start=60.0, dwell=40.0, victims=4),
        ))
        report = asyncio.run(rt.run())
        compromised = {e.node for e in rt.system.faults.history}
        assert len(compromised) == 4
        assert rt.metrics.tasks.evacuations > 0
        assert report["drained"] and report["clean_shutdown"]


class TestSeries:
    """The registry's series on the live clock: whether the report carries
    them, and at which instants they are sampled."""

    def test_record_series_off_builds_no_payload(self, monkeypatch, capsys):
        # --no-series is the config's record_series, as on a simulated
        # run: the payload is never built, and the registry still samples
        # into the flight recorder
        def built(_registry):
            raise AssertionError("the series payload was built")

        monkeypatch.setattr(MetricsRegistry, "to_payload", built)
        runtimes = []

        async def run_live(cfg):
            runtimes.append(LiveRuntime(cfg))
            return await runtimes[-1].run()

        monkeypatch.setattr(cli, "run_live", run_live)
        assert main([
            "--nodes", "9", "--rate", "40", "--duration", "5", "--time-scale", "200",
            "--latency", "0", "--seed", "7", "--no-series",
        ]) == 0
        reports = [json.loads(capsys.readouterr().out)]
        runtimes.append(LiveRuntime(LiveConfig(
            nodes=9, arrival_rate=40.0, horizon=5.0, seed=7, time_scale=200.0,
            latency=0.0, obs=ObsConfig(record_series=False),
        )))
        reports.append(asyncio.run(runtimes[-1].run()))
        for rt, report in zip(runtimes, reports):
            assert rt.cfg.obs == ObsConfig(record_series=False)
            assert "series" not in report
            assert rt.system.recorder.snapshots_seen > 0

    def test_a_late_tick_samples_the_instant_it_was_due(self, manual_clock):
        # A handler holds the CPU across two of the registry's due instants
        # (one a virtual second here).  The ticks it delays run late, in
        # the next batch, but before anything due after them: each must
        # sample the state of the instant it was due, not the later clock.
        cfg = LiveConfig(
            nodes=9, arrival_rate=8.0, task_mean=1.0, horizon=48.0, seed=7,
            time_scale=100.0,
        )
        rt = LiveRuntime(cfg)
        hosts = list(rt.system.hosts.values())
        ran = []  # (clock, every host's busy_until) as each later sample ran
        rt.system.registry.add_sampler(
            lambda _t: ran.append((rt.sim.now, [h.queue.busy_until for h in hosts]))
        )
        rt.sim.at(20.5, manual_clock, 2.0 / cfg.time_scale)  # two virtual seconds
        track = asyncio.run(rt.run())["series"]["series"]["queue_backlog_total"]
        t, v = track["t"][1:], track["v"][1:]  # after the t=0 baseline
        assert t == [float(k) for k in range(1, 49)] and len(ran) == len(t)
        twin = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(ExperimentConfig)}
        sim = run_experiment(ExperimentConfig(**twin)).series["series"]
        assert t == sim["queue_backlog_total"]["t"][1:]  # the twin's instants
        late = [k for k, (clock, _) in enumerate(ran) if clock - t[k] > 0.1]
        assert late == [20, 21]  # the ticks due at 21 and 22 ran at 22.5
        for at, backlog, (_, busy_until) in zip(t, v, ran):
            assert backlog == pytest.approx(sum(max(b - at, 0.0) for b in busy_until))
        assert v[20] > 0.0 and v[21] > 0.0


class TestTaskLifetime:
    """What the runtime keeps of a task lasts from its admission to its
    completion or loss, and a task's latency is that of its first decision."""

    def test_evacuated_and_lost_tasks_settle_once_and_leave(self, manual_clock):
        cfg = LiveConfig(nodes=9, arrival_rate=1.4, horizon=300.0, seed=11)
        rt = LiveRuntime(cfg)
        faults = rt.system.faults
        for i, node in enumerate((4, 1, 7, 3)):  # compromised: they evacuate
            rt.sim.at(60.0 + 40.0 * i, faults.hold_down, node)
            rt.sim.at(80.0 + 40.0 * i, faults.release_down, node)
        rt.sim.at(230.0, faults.crash, 5)  # crashed: its residents are lost
        rt.sim.at(240.0, faults.recover, 5)

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
            assert rt.metrics._settled_ids == resident
            await rt.sim.run(until=max(h.queue.busy_until for h in hosts) + 0.01)
            rt.system.settle()
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
        assert not rt.metrics._settled_ids

    def test_a_granted_evacuation_rebinds_the_task(self, manual_clock):
        # an evacuation re-admits a resident task without task_admitted;
        # its id stays kept while it runs on the host that granted
        cfg = LiveConfig(nodes=9, arrival_rate=1.4, horizon=300.0, seed=11)
        rt = LiveRuntime(cfg)
        for i, node in enumerate((4, 1, 7, 3)):
            rt.sim.at(60.0 + 40.0 * i, rt.system.faults.hold_down, node)
            rt.sim.at(80.0 + 40.0 * i, rt.system.faults.release_down, node)
        moves, evacuation = [], rt.metrics.evacuation

        def checked_evacuation(task, success):
            evacuation(task, success)
            if success:
                hosts = rt.system.hosts.values()
                resident = {t.task_id for h in hosts for t in h.queue.resident_tasks()}
                moves.append((task.origin, task.admitted_at,
                              task.task_id in rt.metrics._settled_ids,
                              rt.metrics._settled_ids == resident))

        rt.metrics.evacuation = checked_evacuation
        assert asyncio.run(rt.run())["drained"]
        assert moves
        for left, new, kept, exact in moves:
            assert new != left and kept and exact

    def test_a_resettlement_keeps_the_latency_of_the_first_decision(self):
        metrics = _LiveMetrics(LiveScheduler())
        task = Task(size=1.0, arrival_time=0.0, origin=0)
        metrics.task_generated()
        task.mark_admitted(2, 0.0, TaskOutcome.MIGRATED)
        metrics.task_admitted(task)
        assert (metrics._settled_ids, metrics.unsettled) == ({task.task_id}, 0)
        metrics.task_admitted(task)  # a re-admission settles nothing new
        task.mark_lost()  # its host crashed: a further settlement
        metrics.task_lost(task)
        assert len(metrics.latencies_ms) == metrics.latency_hist.total() == 1
        assert metrics.unsettled == 0 and metrics.tasks.lost == 1
        assert not metrics._settled_ids

    def test_an_orphaned_grant_confirmed_after_completion_binds_nothing(self):
        # the responder admitted and ran the task while the grant was lost;
        # the origin's give-up confirms an admission that is already over
        metrics = _LiveMetrics(LiveScheduler())
        task = Task(size=1.0, arrival_time=0.0, origin=0)
        metrics.task_generated()
        task.mark_admitted(1, 0.0, TaskOutcome.MIGRATED)
        task.mark_completed(1.0)
        metrics.task_completed(task)
        assert metrics.unsettled == 1
        metrics.task_admitted(task)
        assert metrics.unsettled == 0 and len(metrics.latencies_ms) == 1
        assert not metrics._settled_ids

    def test_a_task_lost_before_its_decision_settles_once(self):
        # lost in flight (its negotiation's responder crashed): the loss
        # is its first and only settlement, and no id was ever kept
        metrics = _LiveMetrics(LiveScheduler())
        task = Task(size=1.0, arrival_time=0.0, origin=0)
        metrics.task_generated()
        task.mark_lost()
        metrics.task_lost(task)
        assert metrics.unsettled == 0 and len(metrics.latencies_ms) == 1
        assert metrics.tasks.lost == 1 and not metrics._settled_ids


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
