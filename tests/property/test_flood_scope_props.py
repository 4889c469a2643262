"""Property test: a flood's receivers and charge never come from a stale epoch.

``Transport`` caches, per source and per liveness epoch, who a flood
reaches — the whole live component, or under ``neighbors_only`` the
direct neighbours that are up across an up link — and what it costs (the
component's link count).  Inside an epoch a flood evaluates no liveness
or link predicate, so every way the overlay can change must move the
epoch key: crashing, compromising or recovering a node, failing or
restoring a link, a node joining through ``System.add_node``, a link
added to the ``Topology`` directly.  PR 14 found a flood crossing a
partition by accident; this looks for that class of bug on purpose, on
the simulator's transport and on ``LiveTransport`` (which inherits the
send path and must inherit its invalidation).  After every change the
epoch's component labels, member tuples and link counts — walked over the
full overlay through the predicates, with no copy of it — must equal
those of the live overlay built as a topology of its own.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.live.runtime import LiveConfig, LiveRuntime

_index = st.integers(min_value=0, max_value=10_000)

#: one step of an interleaving; indices are reduced modulo what exists
_ops = st.one_of(
    st.tuples(st.sampled_from(["crash", "compromise", "recover"]), _index),
    st.tuples(st.sampled_from(["fail_link", "restore_link"]), _index),
    st.tuples(st.just("add_node"), _index, _index),
    st.tuples(st.just("add_link"), _index, _index),
    st.tuples(st.just("flood"), _index, st.booleans()),
)


def _sim_system():
    return build_system(
        ExperimentConfig(protocol="realtor", topology="mesh", nodes=9, seed=1)
    )


def _live_system():
    # the paper's link-count charge, not the LAN's flat multicast one
    cfg = LiveConfig(
        protocol="realtor", topology="mesh", nodes=9, seed=1,
        backend="inproc", flood_cost_override=None,
    )
    return LiveRuntime(cfg).system


def _expected(system, src, neighbors_only):
    """(receivers, cost) recomputed from the fault manager and topology
    alone — no epoch, no cache, no transport code."""
    faults, topo = system.faults, system.topo
    if not faults.can_communicate(src):
        return [], None
    live_links = [
        (u, v) for u, v in topo.links()
        if faults.can_communicate(u)
        and faults.can_communicate(v)
        and faults.link_up(u, v)
    ]
    component, frontier = {src}, [src]
    while frontier:
        node = frontier.pop()
        for u, v in live_links:
            other = v if u == node else u if v == node else None
            if other is not None and other not in component:
                component.add(other)
                frontier.append(other)
    cost = float(sum(1 for u, _v in live_links if u in component))
    if neighbors_only:
        receivers = [
            n for n in sorted(component - {src})
            if topo.has_link(src, n) and faults.link_up(src, n)
        ]
    else:
        receivers = sorted(component - {src})
    return receivers, cost


def _live_components(system):
    """``(comp_of, members, links)`` of the live overlay, built the way
    ``FaultManager.live_topology()`` builds it — an induced subgraph minus
    failed links, then ``connected_components()`` — over the transport's
    liveness predicate ``can_communicate``: a compromised node is out of
    ``live_topology()`` but still sends and receives."""
    faults, topo = system.faults, system.topo
    live = topo.subgraph([n for n in topo.nodes() if faults.can_communicate(n)])
    for u, v in live.links():
        if not faults.link_up(u, v):
            live.remove_link(u, v)
    comps = live.connected_components()
    comp_of = {n: ci for ci, comp in enumerate(comps) for n in comp}
    members = [tuple(sorted(comp)) for comp in comps]
    links = [sum(1 for u, _v in live.links() if u in comp) for comp in comps]
    return comp_of, members, links


def _check_epoch(system, label):
    """The epoch's labels are the live overlay's, and under the paper's
    accounting no flood made the transport copy the overlay."""
    epoch = system.transport._epoch_structure()
    comp_of, members, links = _live_components(system)
    assert epoch.members == members, f"{label}: wrong component members"
    assert epoch.comp_of == comp_of, f"{label}: wrong component labels"
    assert epoch.links == links, f"{label}: wrong component link counts"
    assert epoch.live is None and epoch.router is None, f"{label}: overlay copied"


def _apply(system, op, next_id):
    """Apply one non-flood op; returns the next free node id."""
    faults, topo = system.faults, system.topo
    nodes = topo.nodes()
    name = op[0]
    if name in ("crash", "compromise", "recover"):
        getattr(faults, name)(nodes[op[1] % len(nodes)])
    elif name in ("fail_link", "restore_link"):
        links = topo.links()
        getattr(faults, name)(*links[op[1] % len(links)])
    elif name == "add_node":
        peers = sorted({nodes[op[1] % len(nodes)], nodes[op[2] % len(nodes)]})
        system.add_node(next_id, attach_to=peers)
        return next_id + 1
    elif name == "add_link":
        u, v = nodes[op[1] % len(nodes)], nodes[op[2] % len(nodes)]
        if u != v:
            topo.add_link(u, v)
    return next_id


def _check_interleaving(system, ops):
    transport = system.transport
    charged = []
    transport.on_cost = lambda _kind, cost: charged.append(cost)
    next_id = 100
    # warm both per-source caches on the pristine overlay, so that every
    # later answer is one the epoch either kept or had to rebuild
    for src in system.topo.nodes():
        transport.flood(src, "adv", None, neighbors_only=True)
        transport.flood(src, "adv", None)
    for step, op in enumerate(ops):
        if op[0] != "flood":
            next_id = _apply(system, op, next_id)
            _check_epoch(system, f"step {step}: {op[0]}")
            continue
        nodes = system.topo.nodes()
        src, neighbors_only = nodes[op[1] % len(nodes)], op[2]
        want_receivers, want_cost = _expected(system, src, neighbors_only)
        del charged[:]
        got = transport.flood(src, "adv", None, neighbors_only=neighbors_only)
        label = f"step {step}: flood({src}, neighbors_only={neighbors_only})"
        assert got == want_receivers, f"{label} reached the wrong nodes"
        assert charged == ([] if want_cost is None else [want_cost]), (
            f"{label} was charged from a stale epoch"
        )


#: crashing the mesh's four edge midpoints leaves five one-node components,
#: whose labels must still come in smallest-id order
_SINGLETONS = [("crash", 1), ("crash", 3), ("crash", 5), ("crash", 7), ("flood", 4, False)]


class TestFloodScopeTracksTheOverlay:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_ops, min_size=1, max_size=30))
    @example(_SINGLETONS)
    def test_simulator_transport(self, ops):
        _check_interleaving(_sim_system(), ops)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_ops, min_size=1, max_size=30))
    @example(_SINGLETONS)
    def test_live_transport_inproc(self, ops):
        _check_interleaving(_live_system(), ops)
