"""Property tests: work-queue conservation and capacity invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.node.queue import WorkQueue
from repro.node.task import Task, TaskOutcome, TaskStatus
from repro.sim.kernel import Simulator

sizes = st.floats(min_value=0.01, max_value=30.0, allow_nan=False)
gaps = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


class TestWorkQueueProperties:
    @given(st.lists(st.tuples(sizes, gaps), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_backlog_never_exceeds_capacity(self, arrivals):
        sim = Simulator()
        q = WorkQueue(sim, 100.0)
        for size, gap in arrivals:
            sim.run(until=sim.now + gap)
            t = Task(size=size, arrival_time=sim.now, origin=0)
            if q.fits(size):
                t.mark_admitted(0, sim.now, TaskOutcome.LOCAL)
                q.try_admit(t)
            assert q.backlog() <= q.capacity + 1e-9

    @given(st.lists(st.tuples(sizes, gaps), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_all_admitted_eventually_complete(self, arrivals):
        sim = Simulator()
        done = []
        q = WorkQueue(sim, 100.0, on_complete=done.append)
        admitted = 0
        for size, gap in arrivals:
            sim.run(until=sim.now + gap)
            if q.fits(size):
                t = Task(size=size, arrival_time=sim.now, origin=0)
                t.mark_admitted(0, sim.now, TaskOutcome.LOCAL)
                q.try_admit(t)
                admitted += 1
        sim.run(until=sim.now + 200.0)
        assert len(done) == admitted
        assert q.backlog() == 0.0

    @given(st.lists(st.tuples(sizes, gaps), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_completion_times_fifo_and_exact(self, arrivals):
        sim = Simulator()
        q = WorkQueue(sim, 1e9)  # no capacity pressure
        expected_completions = []
        for size, gap in arrivals:
            sim.run(until=sim.now + gap)
            t = Task(size=size, arrival_time=sim.now, origin=0)
            t.mark_admitted(0, sim.now, TaskOutcome.LOCAL)
            c = q.try_admit(t)
            expected_completions.append((t, c))
        sim.run(until=sim.now + 1e6)
        for t, c in expected_completions:
            assert t.completed_time == c
        comps = [c for _, c in expected_completions]
        assert comps == sorted(comps)

    @given(
        st.lists(sizes, min_size=2, max_size=20),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_remove_preserves_conservation(self, task_sizes, data):
        sim = Simulator()
        done = []
        q = WorkQueue(sim, 1e9, on_complete=done.append)
        tasks = []
        for size in task_sizes:
            t = Task(size=size, arrival_time=0.0, origin=0)
            t.mark_admitted(0, 0.0, TaskOutcome.LOCAL)
            q.try_admit(t)
            tasks.append(t)
        # withdraw a random non-head subset
        removable = tasks[1:]
        k = data.draw(st.integers(0, len(removable)), label="k")
        for t in removable[:k]:
            q.remove(t)
        sim.run(until=sum(task_sizes) + 10.0)
        completed = [t for t in tasks if t.status is TaskStatus.COMPLETED]
        assert len(completed) == len(tasks) - k
        assert len(done) == len(tasks) - k
        # total busy time equals the surviving work
        surviving = sum(t.size for t in tasks) - sum(
            t.size for t in removable[:k]
        )
        last = max((t.completed_time for t in completed), default=0.0)
        assert abs(last - surviving) < 1e-6
