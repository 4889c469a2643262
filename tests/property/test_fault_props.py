"""Property tests: the system survives arbitrary fault schedules.

Random crash/compromise/recover sequences are injected into running
systems; the accounting identities must hold in every case and no
exception may escape.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system

fault_actions = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=90.0),          # time
        st.sampled_from(["crash", "compromise", "recover"]),
        st.integers(0, 8),                                 # node (3x3 mesh)
    ),
    max_size=30,
)


class TestFaultInjection:
    @given(fault_actions, st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_accounting_survives_any_fault_schedule(self, actions, seed):
        cfg = ExperimentConfig(
            arrival_rate=4.0, rows=3, cols=3, horizon=100.0, seed=seed
        )
        system = build_system(cfg)
        for time, action, node in actions:
            system.sim.at(time, getattr(system.faults, action), node)
        system.run()
        res = system.result()
        # generated tasks are admitted or rejected; lost <= admitted
        assert res.admitted + res.rejected == res.generated
        assert res.lost <= res.admitted + res.evacuations
        assert res.evacuation_failures <= res.evacuations

    @given(fault_actions, st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_no_work_on_non_up_nodes_at_end(self, actions, seed):
        cfg = ExperimentConfig(
            arrival_rate=4.0, rows=3, cols=3, horizon=100.0, seed=seed
        )
        system = build_system(cfg)
        for time, action, node in actions:
            system.sim.at(time, getattr(system.faults, action), node)
        system.run()
        for nid, host in system.hosts.items():
            if system.faults.state(nid).value == "crashed":
                assert host.queue.backlog() == 0.0

    @given(fault_actions)
    @settings(max_examples=20, deadline=None)
    def test_liveness_predicates_consistent(self, actions):
        from repro.network.faults import FaultManager, NodeState
        from repro.network.generators import mesh
        from repro.sim.kernel import Simulator

        sim = Simulator()
        faults = FaultManager(sim, mesh(3, 3))
        for time, action, node in actions:
            sim.at(time, getattr(faults, action), node)
        sim.run()
        for node in range(9):
            state = faults.state(node)
            # is_up implies can_communicate; crashed implies neither
            if faults.is_up(node):
                assert faults.can_communicate(node)
            if state is NodeState.CRASHED:
                assert not faults.can_communicate(node)
            if state is NodeState.COMPROMISED:
                assert faults.can_communicate(node) and not faults.is_up(node)
