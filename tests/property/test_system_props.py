"""Property tests: whole-system invariants over random configurations.

These run short end-to-end simulations with randomised protocol, load,
seed and topology, asserting the accounting identities that must hold in
*every* run — the strongest guard against bookkeeping drift.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.protocols.registry import PAPER_PROTOCOLS

configs = st.fixed_dictionaries(
    {
        "protocol": st.sampled_from(PAPER_PROTOCOLS),
        "arrival_rate": st.floats(min_value=0.5, max_value=12.0),
        "seed": st.integers(0, 1000),
        "rows": st.integers(2, 4),
        "cols": st.integers(2, 4),
        "queue_capacity": st.floats(min_value=20.0, max_value=150.0),
    }
)


class TestSystemInvariants:
    @given(configs)
    @settings(max_examples=25, deadline=None)
    def test_task_conservation(self, params):
        cfg = ExperimentConfig(horizon=60.0, **params)
        system = build_system(cfg)
        system.run()
        res = system.result()
        # every generated task is admitted or rejected (none vanish)
        assert res.admitted + res.rejected == res.generated
        assert res.admitted_local >= 0 and res.admitted_migrated >= 0

    @given(configs)
    @settings(max_examples=25, deadline=None)
    def test_completions_bounded_by_admissions(self, params):
        cfg = ExperimentConfig(horizon=60.0, **params)
        system = build_system(cfg)
        system.run()
        res = system.result()
        assert res.completed <= res.admitted
        # run long past the horizon: all admitted work finishes
        system.sim.run(until=60.0 + 20 * cfg.queue_capacity)
        system.settle()
        assert system.metrics.tasks.completed == res.admitted

    @given(configs)
    @settings(max_examples=25, deadline=None)
    def test_message_costs_nonnegative_and_kinded(self, params):
        cfg = ExperimentConfig(horizon=60.0, **params)
        system = build_system(cfg)
        system.run()
        res = system.result()
        assert res.messages_total >= 0.0
        assert all(v >= 0.0 for v in res.messages_by_kind.values())
        assert sum(res.messages_by_kind.values()) == res.messages_total

    @given(configs)
    @settings(max_examples=15, deadline=None)
    def test_backlogs_never_exceed_capacity(self, params):
        cfg = ExperimentConfig(horizon=40.0, **params)
        system = build_system(cfg)
        # sample every host's queue during the run
        violations = []

        def check():
            for host in system.hosts.values():
                if host.queue.backlog() > cfg.queue_capacity + 1e-6:
                    violations.append(host.node_id)

        system.sim.periodic(1.0, check)
        system.run()
        assert violations == []

    @given(configs)
    @settings(max_examples=15, deadline=None)
    def test_determinism_bit_exact(self, params):
        cfg = ExperimentConfig(horizon=40.0, **params)
        a = build_system(cfg)
        a.run()
        b = build_system(cfg)
        b.run()
        ra, rb = a.result(), b.result()
        assert ra.generated == rb.generated
        assert ra.messages_total == rb.messages_total
        assert ra.admitted == rb.admitted
        assert a.sim.events_executed == b.sim.events_executed
