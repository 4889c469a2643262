"""Engine micro-benchmarks — simulator performance, not paper results.

These give pytest-benchmark real hot loops to time: event throughput,
flood fan-out, queue admissions, routing queries.  Regressions here make
every experiment slower, so the numbers are worth tracking.
"""

from repro.network.generators import paper_topology
from repro.network.routing import Router
from repro.network.transport import Transport
from repro.node.host import Host
from repro.node.queue import WorkQueue
from repro.node.task import Task, TaskOutcome
from repro.sim.kernel import Simulator

from harness import bench_queue_steady_state


def test_event_throughput(benchmark):
    """Schedule+fire cycles per second through the kernel."""

    def run_events():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 20_000:
                sim.after(0.001, tick)

        sim.after(0.001, tick)
        sim.run()
        return count[0]

    assert benchmark(run_events) == 20_000


def test_flood_throughput(benchmark):
    """Floods per second over the 25-node mesh (cached structure)."""

    def run_floods():
        sim = Simulator()
        transport = Transport(sim, paper_topology())
        for node in range(25):
            transport.register(node, "adv", lambda d: None)
        for i in range(500):
            transport.flood(i % 25, "adv", None)
        sim.run()
        return transport.delivered_messages

    assert benchmark(run_floods) == 500 * 24


def test_queue_admission_throughput(benchmark):
    """Admissions + completions per second through one work queue."""

    def run_queue():
        sim = Simulator()
        q = WorkQueue(sim, capacity=1e12)
        for i in range(10_000):
            t = Task(size=0.5, arrival_time=0.0, origin=0)
            t.mark_admitted(0, 0.0, TaskOutcome.LOCAL)
            q.admit(t)
        sim.run()
        return q.completed_count

    assert benchmark(run_queue) == 10_000


def test_queue_steady_state_throughput(benchmark):
    """Admissions interleaved with completions at finite capacity.

    Kept in lockstep with ``benchmarks/harness.py::bench_queue_steady_state``:
    0.5 s of work every 0.4 s saturates the 100 s queue, so fewer than the
    20 000 arrivals are admitted — how many is asserted against the
    harness's own count, so the pair cannot drift.
    """

    def run_steady():
        sim = Simulator()
        q = WorkQueue(sim, capacity=100.0)
        count = [0]

        def arrive():
            if q.fits(0.5):
                t = Task(size=0.5, arrival_time=sim.now, origin=0)
                t.mark_admitted(0, sim.now, TaskOutcome.LOCAL)
                q.admit(t)
            count[0] += 1
            if count[0] < 20_000:
                sim.after(0.4, arrive)

        arrive()
        sim.run()
        return q.completed_count

    assert benchmark(run_steady) == bench_queue_steady_state()


def test_monitor_churn_throughput(benchmark):
    """Host admissions under threshold monitoring.

    Kept in lockstep with ``benchmarks/harness.py::bench_monitor_churn``.
    """

    def run_churn():
        sim = Simulator()
        host = Host(sim, 0, capacity=100.0, threshold=0.9)
        count = [0]

        def arrive():
            t = Task(size=0.5, arrival_time=sim.now, origin=0)
            if host.can_accept(t):
                host.accept(t, TaskOutcome.LOCAL)
            count[0] += 1
            if count[0] < 20_000:
                sim.after(0.45, arrive)

        arrive()
        sim.run()
        return count[0]

    assert benchmark(run_churn) == 20_000


def test_routing_query_throughput(benchmark):
    """All-pairs distance lookups on a cached router."""
    router = Router(paper_topology())
    router.mean_shortest_path()  # warm the cache

    def run_queries():
        total = 0
        for u in range(25):
            for v in range(25):
                total += router.distance(u, v)
        return total

    assert benchmark(run_queries) > 0


def test_end_to_end_sim_rate(benchmark):
    """Simulated-seconds per wall-second for the paper workload."""
    from repro.experiments.config import paper_config
    from repro.experiments.runner import run_experiment

    cfg = paper_config("realtor", 6.0, horizon=300.0)
    result = benchmark(run_experiment, cfg)
    assert result.generated > 0
