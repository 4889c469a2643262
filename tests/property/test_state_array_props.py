"""Property tests: vectorized node state mirrors the scalar objects.

:class:`~repro.node.state_arrays.NodeStateArrays` is a write-through
numpy mirror of ``WorkQueue``/``FaultManager`` state and each
``ThresholdMonitor``'s threshold.  The contract is observational
identity: after ANY sequence of admissions, withdrawals, crashes and
time advances, every vectorized query must return bit-for-bit the value
the scalar object would — same float ops in the same order, no
tolerance.  Hypothesis drives random operation sequences against both
representations and compares after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.node.monitor import ThresholdMonitor
from repro.node.queue import WorkQueue
from repro.node.state_arrays import NodeStateArrays
from repro.node.task import Task, TaskOutcome
from repro.sim.kernel import Simulator

N_NODES = 4

# (node, action, magnitude): magnitude is a task size for admit, a time
# step for advance, and unused otherwise
ops_strategy = st.lists(
    st.tuples(
        st.integers(0, N_NODES - 1),
        st.sampled_from(["admit", "remove", "drop", "advance"]),
        st.floats(min_value=0.1, max_value=6.0, allow_nan=False),
    ),
    max_size=40,
)

fault_actions = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=45.0),
        st.sampled_from(["crash", "compromise", "recover"]),
        st.integers(0, 8),
    ),
    max_size=20,
)


def _build(capacities):
    sim = Simulator()
    arrays = NodeStateArrays(range(N_NODES))
    queues = []
    monitors = []
    for i in range(N_NODES):
        q = WorkQueue(sim, capacities[i])
        m = ThresholdMonitor(sim, q, 0.9)
        q.bind_state(arrays, i)
        arrays.threshold[i] = m.threshold
        queues.append(q)
        monitors.append(m)
    return sim, arrays, queues, monitors


def _head_completion(q):
    """The queue's head entry's completion instant, retired or not (inf: empty)."""
    resident, head = q._resident, q._head
    return resident[head][0] if head < len(resident) else float("inf")


def _assert_mirror_exact(sim, arrays, queues, monitors):
    """Every vectorized query == the scalar answer, bit for bit."""
    now = sim.now
    backlog = arrays.backlog(now)
    usage = arrays.usage(now)
    headroom = arrays.headroom(now)
    cols = arrays.snapshot_columns(now)
    for i in range(N_NODES):
        q, m = queues[i], monitors[i]
        assert arrays.busy_until[i] == q.busy_until
        assert arrays.next_completion[i] == _head_completion(q)
        assert backlog[i] == q.backlog(now)
        assert usage[i] == q.usage(now)
        assert headroom[i] == q.headroom(now)
        assert cols[0][i] == q.backlog(now)
        assert cols[1][i] == q.usage(now)
        assert cols[2][i] == q.headroom(now)
        # all nodes are up here, so available is the instantaneous test
        assert bool(cols[3][i]) == m.available()


class TestQueueMonitorMirror:
    @given(
        ops_strategy,
        st.lists(
            st.floats(min_value=2.0, max_value=20.0),
            min_size=N_NODES,
            max_size=N_NODES,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_write_through_is_bit_identical(self, ops, capacities):
        sim, arrays, queues, monitors = _build(capacities)
        _assert_mirror_exact(sim, arrays, queues, monitors)
        for node, action, magnitude in ops:
            q, m = queues[node], monitors[node]
            if action == "admit":
                task = Task(size=magnitude, arrival_time=sim.now, origin=node)
                if q.try_admit(task) is not None:
                    task.mark_admitted(node, sim.now, TaskOutcome.LOCAL)
                    m.notify_change()
            elif action == "remove":
                resident = q.resident_tasks()
                if resident:
                    try:
                        q.remove(resident[-1])
                    except (ValueError, KeyError):
                        pass  # already-started head: withdrawal refused
                    else:
                        m.notify_change()
            elif action == "drop":
                q.drop_all()
                m.notify_change()
            else:  # advance: run decay/completion/crossing events
                sim.run(until=sim.now + magnitude)
            _assert_mirror_exact(sim, arrays, queues, monitors)
        # drain everything and re-check the settled state
        sim.run(until=sim.now + 200.0)
        _assert_mirror_exact(sim, arrays, queues, monitors)


class TestSystemWideMirror:
    @given(fault_actions, st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_state_arrays_match_scalars_after_faulted_run(self, actions, seed):
        cfg = ExperimentConfig(
            arrival_rate=4.0, rows=3, cols=3, horizon=50.0, seed=seed
        )
        system = build_system(cfg)
        state = system.state
        assert state is not None
        for time, action, node in actions:
            system.sim.at(time, getattr(system.faults, action), node)
        system.run()
        now = system.sim.now
        system.settle()
        assert not (state.next_completion <= now).any()  # nothing left due
        backlog, usage, headroom, available = state.snapshot_columns(now)
        for nid, host in system.hosts.items():
            i = state.slot(nid)
            snap = host.snapshot()
            assert state.busy_until[i] == host.queue.busy_until
            assert state.next_completion[i] == _head_completion(host.queue)
            assert backlog[i] == snap.backlog
            assert usage[i] == snap.usage
            assert headroom[i] == snap.headroom
            assert bool(state.up[i]) == system.faults.is_up(nid)
            assert bool(available[i]) == (
                system.faults.is_up(nid) and snap.available
            )
