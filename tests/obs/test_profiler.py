"""Kernel profiler tests: attribution, accounting, run equivalence."""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, run_experiment
from repro.obs.profiler import KernelProfiler, subsystem_of
from repro.sim.kernel import Simulator


class TestSubsystemMapping:
    def test_architectural_layers(self):
        assert subsystem_of("repro.node.queue") == "node"
        assert subsystem_of("repro.node.monitor") == "monitor"
        assert subsystem_of("repro.node.host") == "node"
        assert subsystem_of("repro.network.transport") == "transport"
        assert subsystem_of("repro.protocols.base") == "protocol"
        assert subsystem_of("repro.core.algorithm_h") == "protocol"
        assert subsystem_of("repro.migration.migrator") == "migration"
        assert subsystem_of("repro.workload.arrivals") == "workload"
        assert subsystem_of("repro.sim.kernel") == "kernel"

    def test_unknown_module_falls_back(self):
        assert subsystem_of("some.third.party") == "other"


class TestRecord:
    def test_accumulates_per_callback_and_subsystem(self):
        prof = KernelProfiler()

        def cb():
            pass

        prof.record(cb, 0.5)
        prof.record(cb, 0.25)
        prof.record(cb, 0.25)
        rep = prof.report()
        assert rep.events_executed == 3
        (name, entry), = rep.by_callback.items()
        assert "cb" in name
        assert entry.seconds == 1.0 and entry.events == 3

    def test_bound_methods_share_one_entry(self):
        class Thing:
            def tick(self):
                pass

        prof = KernelProfiler()
        # a fresh bound-method object per schedule, as the kernel sees them
        prof.record(Thing().tick, 0.1)
        prof.record(Thing().tick, 0.1)
        rep = prof.report()
        assert len(rep.by_callback) == 1
        assert next(iter(rep.by_callback.values())).events == 2

    def test_finish_run_folds_remainder_into_kernel(self):
        prof = KernelProfiler()
        prof.record(lambda: None, 0.3)
        prof.finish_run(1.0)
        rep = prof.report()
        assert rep.total_seconds == 1.0
        assert abs(rep.by_subsystem["kernel"].seconds - 0.7) < 1e-12
        assert abs(rep.accounted_fraction - 1.0) < 1e-12

    def test_report_is_a_snapshot(self):
        prof = KernelProfiler()
        prof.record(lambda: None, 0.1)
        rep = prof.report()
        prof.record(lambda: None, 0.1)
        assert rep.events_executed == 1


class TestProfiledRun:
    def test_kernel_feeds_profiler(self):
        sim = Simulator(seed=1)
        hits = []
        for i in range(5):
            sim.at(float(i), hits.append, i)
        prof = KernelProfiler()
        sim.run(until=10.0, profile=prof)
        assert hits == [0, 1, 2, 3, 4]
        rep = prof.report()
        assert rep.events_executed == 5
        assert rep.total_seconds > 0.0

    def test_accounts_at_least_95_percent_of_wall_time(self):
        """Acceptance: >=95% of kernel wall time lands in named categories."""
        cfg = ExperimentConfig(
            protocol="realtor", arrival_rate=25.0, horizon=300.0, seed=3
        )
        system = build_system(cfg)
        prof = KernelProfiler()
        system.run(profile=prof)
        rep = prof.report()
        assert rep.events_executed > 1000
        assert rep.accounted_fraction >= 0.95
        assert "other" not in rep.by_subsystem  # every module maps to a layer
        # the run exercised the architectural layers that schedule events
        # (a queue schedules none: its completions are retired, not run)
        assert {"monitor", "workload", "kernel"} <= set(rep.by_subsystem)

    def test_profiled_run_results_match_unprofiled(self):
        """Profiling observes; it must not perturb simulation outcomes."""
        cfg = ExperimentConfig(
            protocol="realtor", arrival_rate=20.0, horizon=200.0, seed=5
        )
        plain = run_experiment(cfg)
        profiled = run_experiment(cfg, profile=KernelProfiler())
        import dataclasses

        assert dataclasses.asdict(profiled) == dataclasses.asdict(plain)

    def test_profile_respects_until_and_max_events(self):
        sim = Simulator(seed=1)
        for i in range(10):
            sim.at(float(i), lambda: None)
        sim.run(max_events=3, profile=KernelProfiler())
        assert sim.now == 2.0
        sim2 = Simulator(seed=1)
        for i in range(10):
            sim2.at(float(i), lambda: None)
        sim2.run(until=4.5, profile=KernelProfiler())
        assert sim2.now == 4.5

    def test_format_renders_tables(self):
        prof = KernelProfiler()
        prof.record(lambda: None, 0.01)
        prof.finish_run(0.02)
        text = prof.report().format()
        assert "accounted" in text
        assert "subsystem" in text
        assert "callback" in text
