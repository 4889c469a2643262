"""Property test: lazy retirement is the per-event queue, observably.

``WorkQueue`` schedules no completion event: a finished task is retired
when its queue is next read.  ``tests.oracles.EventPerTaskQueue`` runs
the same queue with one ``Priority.STATE`` event per task.  Two pooled
hosts, one on each queue, take the same admit / remove / crash / advance
program — advances also land exactly on a completion instant, where the
event and the ``<= now`` retirement must agree, and an admission may
follow an advance with nothing read in between, so the pool test sees
what finished meanwhile — and after every step they must agree through
the public API: residency, completed ids and instants, completed counts
and the pool's free capacity.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.node.host import Host
from repro.node.monitor import ThresholdMonitor
from repro.node.resources import ResourcePool
from repro.node.task import Task, TaskOutcome
from repro.sim.kernel import Simulator
from tests.oracles import EventPerTaskQueue

CAPACITY = 40.0

_ops = st.one_of(
    st.tuples(
        st.just("admit"),
        st.tuples(
            st.floats(min_value=0.5, max_value=20.0, allow_nan=False),  # size
            st.sampled_from([0.0, 0.5, 1.0]),  # gpu demand
            st.sampled_from([0.0, 0.0, 5.0, 12.0]),  # advance first
        ),
    ),
    st.tuples(st.just("advance"), st.floats(min_value=0.1, max_value=15.0)),
    st.tuples(st.just("to_next_completion"), st.none()),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("crash"), st.none()),
)


def _pooled_host(reference: bool):
    sim = Simulator()
    done = []
    host = Host(
        sim, 0, capacity=CAPACITY, pool=ResourcePool.of(gpu=2.0), on_complete=done.append
    )
    if reference:
        host.queue = EventPerTaskQueue(sim, CAPACITY, on_complete=host._task_done)
        host.monitor = ThresholdMonitor(sim, host.queue, host.monitor.threshold)
    return sim, host, done, []


def _observed(side):
    sim, host, done, tasks = side
    return (
        sim.now,
        len(host.queue),
        [t in host.queue for t in tasks],
        [t.task_id for t in host.queue.resident_tasks()],
        host.queue.completed_count,
        host.availability_vector(),
        [(t.task_id, t.completed_time) for t in done],
        [(t.status, t.completed_time) for t in tasks],
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(_ops, min_size=1, max_size=40))
def test_lazy_retirement_matches_one_event_per_task(program):
    sides = [_pooled_host(reference=False), _pooled_host(reference=True)]
    for step, (op, arg) in enumerate(program):
        outcomes = []
        for sim, host, done, tasks in sides:
            if op == "admit":
                size, gpu, gap = arg
                sim.run(until=sim.now + gap)
                task = Task(
                    size=size, arrival_time=sim.now, origin=0, task_id=step,
                    demand={"gpu": gpu} if gpu else {},
                )
                tasks.append(task)
                outcomes.append(host.try_accept(task, TaskOutcome.LOCAL))
            elif op == "advance":
                outcomes.append(sim.run(until=sim.now + arg))
            elif op == "to_next_completion":
                # the reference's next event is the next completion instant
                due = sides[1][0].queue.peek_time()
                outcomes.append(None if due is None else sim.run(until=due))
            elif op == "remove":
                evacuable = host.evacuable_tasks()
                if evacuable:
                    host.withdraw(evacuable[arg % len(evacuable)])
                outcomes.append(len(evacuable))
            else:
                outcomes.append([t.task_id for t in host.crash()])
        assert outcomes[0] == outcomes[1], f"step {step} {op} diverged"
        assert _observed(sides[0]) == _observed(sides[1]), f"after step {step} {op}"
    for sim, *_ in sides:
        sim.run(until=sim.now + 2 * CAPACITY)
    assert _observed(sides[0]) == _observed(sides[1])
