"""Property tests pinning the engine fast path.

Three structures carry the fast path: the tuple-keyed event heap (pop
order must stay the exact ``(time, priority, seq)`` ordering, FIFO within
full ties), the per-source flood-structure cache in the transport (must
be invalidated by topology *and* liveness changes, never serve stale
receiver sets), and the node layer's lazily retiring work queue plus
lazily-invalidated threshold monitor (must be observationally equivalent
to the seed's list-rebuild queue and cancel-always monitor under any
admit/advance/remove/crash interleaving).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.faults import FaultManager
from repro.network.generators import mesh
from repro.network.transport import Transport
from repro.node.monitor import ThresholdMonitor
from repro.node.queue import WorkQueue
from repro.node.task import Task, TaskOutcome, TaskStatus
from repro.sim.events import EventQueue, Priority
from repro.sim.kernel import Simulator

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)
priorities = st.sampled_from(
    [Priority.STATE, Priority.MESSAGE, Priority.ARRIVAL, Priority.SAMPLING]
)


class TestEventQueueTieOrdering:
    @given(st.lists(st.tuples(times, priorities), min_size=1, max_size=200))
    def test_full_ties_pop_in_insertion_order(self, entries):
        """Equal (time, priority) pairs must drain strictly FIFO."""
        q = EventQueue()
        for i, (t, p) in enumerate(entries):
            q.schedule(t, lambda: None, i, priority=p)
        popped = []
        while q:
            ev = q.pop()
            popped.append((ev.time, ev.priority, ev.args[0]))
        # stable sort by (time, priority) of the insertion sequence is the
        # exact specification of the queue's ordering contract
        expected = sorted(
            ((t, p, i) for i, (t, p) in enumerate(entries)),
            key=lambda x: (x[0], x[1]),
        )
        assert popped == expected

    @given(st.lists(st.tuples(times, priorities), min_size=1, max_size=100))
    def test_kernel_and_queue_handles_interleave(self, entries):
        """sim.at handles and queue.schedule handles share one seq space."""
        sim = Simulator()
        fired = []
        for i, (t, p) in enumerate(entries):
            if i % 2 == 0:
                sim.at(t, fired.append, i, priority=p)
            else:
                sim.queue.schedule(t, fired.append, i, priority=p)
        sim.run()
        expected = [
            i
            for _, _, i in sorted(
                ((t, p, i) for i, (t, p) in enumerate(entries)),
                key=lambda x: (x[0], x[1]),
            )
        ]
        assert fired == expected

    @given(st.lists(times, min_size=1, max_size=100))
    def test_pop_until_matches_peek_then_pop(self, ts):
        """The single-pass pop is equivalent to the peek+pop pair."""
        a, b = EventQueue(), EventQueue()
        for t in ts:
            a.schedule(t, lambda: None)
            b.schedule(t, lambda: None)
        limit = sorted(ts)[len(ts) // 2]
        while True:
            ev_a = a.pop_until(limit)
            t_b = b.peek_time()
            ev_b = b.pop() if (t_b is not None and t_b <= limit) else None
            if ev_a is None:
                assert ev_b is None
                break
            assert (ev_a.time, ev_a.seq) == (ev_b.time, ev_b.seq)
        assert len(a) == len(b)


def _flood_receivers(transport, src):
    """Ground-truth receiver set computed fresh (no cache)."""
    transport._epoch = None
    transport._flood_cache.clear()
    receivers, links = transport._flood_structure(src)
    transport._epoch = None
    transport._flood_cache.clear()
    return receivers, links


class TestFloodCacheCoherence:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=15), min_size=0, max_size=6),
        st.integers(min_value=0, max_value=15),
    )
    def test_cache_tracks_crashes_and_recoveries(self, to_crash, src):
        sim = Simulator()
        topo = mesh(4, 4)
        faults = FaultManager(sim, topo)
        transport = Transport(
            sim, topo,
            is_up=faults.can_communicate,
            liveness_version=lambda: faults.version,
        )
        transport._flood_structure(src)  # warm the cache on the pristine overlay
        for node in to_crash:
            if faults.is_up(node):
                faults.crash(node)
            cached = transport._flood_structure(src)[:1]
            fresh = _flood_receivers(transport, src)[:1]
            assert cached == fresh, "stale flood cache after crash"
        for node in to_crash:
            if not faults.is_up(node):
                faults.recover(node)
            cached = transport._flood_structure(src)[:1]
            fresh = _flood_receivers(transport, src)[:1]
            assert cached == fresh, "stale flood cache after recovery"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=8))
    def test_cache_tracks_topology_growth(self, src):
        sim = Simulator()
        topo = mesh(3, 3)
        transport = Transport(sim, topo)
        before, links_before = _flood_receivers(transport, src)
        transport._flood_structure(src)  # populate the cache
        new_node = 100
        topo.add_node(new_node)
        topo.add_link(new_node, src)
        after, links_after = transport._flood_structure(src)
        assert new_node in after
        assert links_after == links_before + 1
        assert set(after) == set(before) | {new_node}

    def test_flood_delivers_to_cached_receivers_only_if_live(self):
        """A node crashing between floods must stop receiving."""
        sim = Simulator()
        topo = mesh(3, 3)
        faults = FaultManager(sim, topo)
        transport = Transport(
            sim, topo,
            is_up=faults.can_communicate,
            liveness_version=lambda: faults.version,
        )
        got = {n: 0 for n in topo.nodes()}
        for n in topo.nodes():
            transport.register(n, "adv", lambda d: got.__setitem__(d.dst, got[d.dst] + 1))
        transport.flood(0, "adv", None)
        sim.run()
        assert got[5] == 1
        faults.crash(5)
        transport.flood(0, "adv", None)
        sim.run()
        assert got[5] == 1  # crashed node no longer reached
        assert got[1] == 2


# --------------------------------------------------------------------------
# Node-layer equivalence: lazily retiring queue vs the seed list-rebuild queue
# --------------------------------------------------------------------------

class _ReferenceQueue:
    """The seed's WorkQueue, kept verbatim as an executable specification.

    List-of-tuples residency, per-completion list rebuild, and guarded
    duplicate events after ``remove`` — the semantics the fast path must
    reproduce observably (single-queue; cross-queue re-admission after
    ``remove`` is where the seed left a stale completion event live, which
    the fast path deliberately fixes — see tests/node/test_queue.py).
    """

    def __init__(self, sim, capacity, on_complete=None):
        self.sim = sim
        self.capacity = float(capacity)
        self.on_complete = on_complete
        self.busy_until = 0.0
        self._resident = []
        self.admitted_count = 0
        self.completed_count = 0
        self.work_admitted = 0.0

    def backlog(self, now=None):
        t = self.sim.now if now is None else now
        return max(0.0, self.busy_until - t)

    def usage(self, now=None):
        return min(self.backlog(now) / self.capacity, 1.0)

    def fits(self, size, now=None):
        return size <= self.capacity - self.backlog(now) + 1e-12

    def resident_tasks(self):
        return [task for _, task in self._resident]

    def __len__(self):
        return len(self._resident)

    def try_admit(self, task):  # callers test fits() first
        now = self.sim.now
        start = max(self.busy_until, now)
        completion = start + task.size
        self.busy_until = completion
        self._resident.append((completion, task))
        self.admitted_count += 1
        self.work_admitted += task.size
        self.sim.at(completion, self._complete, task, priority=Priority.STATE)
        return completion

    def _complete(self, task):
        if task.status is not TaskStatus.QUEUED:
            return
        self._resident = [(c, t) for c, t in self._resident if t is not task]
        task.mark_completed(self.sim.now)
        self.completed_count += 1
        if self.on_complete is not None:
            self.on_complete(task)

    def drop_all(self):
        lost = [task for _, task in self._resident]
        for task in lost:
            task.mark_lost()
        self._resident.clear()
        self.busy_until = self.sim.now
        return lost

    def remove(self, task):
        entries = self._resident
        for i, (_, t) in enumerate(entries):
            if t is task:
                break
        else:
            raise KeyError(f"task {task.task_id} not resident")
        if i == 0 and self.backlog() > 0:
            started_for = self.sim.now - (entries[0][0] - task.size)
            if started_for > 1e-12:
                raise ValueError(f"task {task.task_id} already started")
        del entries[i]
        shifted = []
        for j, (c, t) in enumerate(entries):
            if j >= i:
                c2 = c - task.size
                self.sim.at(
                    max(c2, self.sim.now),
                    self._complete_if_matches, t, c2,
                    priority=Priority.STATE,
                )
                shifted.append((c2, t))
            else:
                shifted.append((c, t))
        self._resident = shifted
        self.busy_until -= task.size
        task.status = TaskStatus.CREATED

    def _complete_if_matches(self, task, expected_completion):
        for c, t in self._resident:
            if t is task and abs(c - expected_completion) < 1e-9:
                self._complete(task)
                return


class _ReferenceMonitor(ThresholdMonitor):
    """The seed monitor: cancel + reschedule the decay event on *every*
    mutation (no lazy invalidation).  Crossing times must match the fast
    monitor exactly — both aim at the same analytic instant."""

    def _reschedule_decay(self):
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        if self._below:
            return
        self._pending = self.sim.at(
            self._cross_time(), self._decay_cross, priority=Priority.STATE
        )

    def _decay_cross(self):
        self._pending = None
        usage = self.queue.usage()
        if self._below or usage >= self.threshold - self.hysteresis:
            return  # a newer admission beat us to it; already rescheduled
        self._below = True
        self.crossings_down += 1
        self._fire("down", usage)


def _fresh_task(sim, label, size):
    task = Task(size=size, arrival_time=sim.now, origin=0)
    task.mark_admitted(0, sim.now, TaskOutcome.LOCAL)
    task.label = label
    return task


_sizes = st.floats(min_value=0.5, max_value=30.0,
                   allow_nan=False, allow_infinity=False)
_gaps = st.floats(min_value=0.1, max_value=15.0,
                  allow_nan=False, allow_infinity=False)
_ops = st.one_of(
    st.tuples(st.just("admit"), _sizes),
    st.tuples(st.just("advance"), _gaps),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("crash"), st.just(0)),
)


class TestQueueFastPathEquivalence:
    """Drive the fast queue+monitor and the seed reference pair through the
    same op program and demand identical observable behaviour."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(_ops, min_size=1, max_size=40))
    def test_random_interleavings_match_seed(self, program):
        capacity, threshold = 50.0, 0.7
        sides = []
        for make_queue in (WorkQueue, _ReferenceQueue):
            sim = Simulator()
            completions, crossings = [], []
            queue = make_queue(
                sim, capacity,
                on_complete=lambda t, log=completions:
                    log.append((t.label, t.completed_time)),
            )
            make_mon = (ThresholdMonitor if make_queue is WorkQueue
                        else _ReferenceMonitor)
            monitor = make_mon(sim, queue, threshold)
            monitor.on_cross(
                lambda d, u, log=crossings, s=sim: log.append((d, s.now, u))
            )
            sides.append((sim, queue, monitor, completions, crossings))

        admitted = []  # every task the fast queue took, in admission order
        for label, (op, arg) in enumerate(program):
            outcomes = []
            for sim, queue, monitor, _, _ in sides:
                if op == "admit":
                    if queue.fits(arg):
                        queue.try_admit(_fresh_task(sim, label, arg))
                        monitor.notify_change()
                        outcomes.append("admitted")
                    else:
                        outcomes.append("full")
                elif op == "advance":
                    sim.run(until=sim.now + arg)
                    outcomes.append("advanced")
                elif op == "remove":
                    resident = queue.resident_tasks()
                    if not resident:
                        outcomes.append("empty")
                        continue
                    try:
                        queue.remove(resident[arg % len(resident)])
                        monitor.notify_change()
                        outcomes.append("removed")
                    except ValueError:
                        outcomes.append("started")
                else:  # crash
                    lost = queue.drop_all()
                    monitor.notify_change()
                    outcomes.append(("crashed", sorted(t.label for t in lost)))
            assert outcomes[0] == outcomes[1], f"op {label} {op} diverged"
            fast_q, ref_q = sides[0][1], sides[1][1]
            assert fast_q.busy_until == ref_q.busy_until
            assert fast_q.backlog() == ref_q.backlog()
            resident = fast_q.resident_tasks()
            assert ([t.label for t in resident]
                    == [t.label for t in ref_q.resident_tasks()])
            assert len(fast_q) == len(ref_q) == len(resident)
            if op == "admit" and outcomes[0] == "admitted":
                admitted.append(resident[-1])
            assert [t for t in admitted if t in fast_q] == resident
            # residency is read from a head offset: the slots behind it
            # hold nothing, and never outnumber the live entries
            dead = fast_q._head
            assert not any(fast_q._resident[:dead])
            assert dead <= len(fast_q)

        for sim, queue, _, _, _ in sides:
            sim.run(until=sim.now + 2 * capacity)
            assert len(queue) == 0
        (_, fast_q, fast_m, fast_done, fast_cross) = sides[0]
        (_, ref_q, ref_m, ref_done, ref_cross) = sides[1]
        assert fast_done == ref_done, "completion order/time diverged"
        assert fast_cross == ref_cross, "monitor crossings diverged"
        assert fast_q.completed_count == ref_q.completed_count
        assert (fast_m.crossings_up, fast_m.crossings_down) == (
            ref_m.crossings_up, ref_m.crossings_down)
