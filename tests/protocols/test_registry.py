"""Unit tests for the protocol registry and shared config."""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.protocols.base import ProtocolConfig
from repro.protocols.registry import (
    PAPER_PROTOCOLS,
    PROTOCOLS,
    Protocol,
    alias_table,
    make_agent,
    protocol_names,
)
from repro.workload.attack import AttackConfig


class TestRegistry:
    def test_paper_protocols_all_resolvable(self, make_context):
        for i, name in enumerate(PAPER_PROTOCOLS):
            agent = make_agent(name, make_context(node_id=i))
            assert agent is not None

    def test_aliases(self, make_context):
        def parts(agent):
            return (agent.pull, agent.push, agent.respond)

        assert parts(make_agent("pure-push", make_context(0))) == PROTOCOLS["push-1"].parts
        assert parts(make_agent("REALTOR-100", make_context(1))) == PROTOCOLS["realtor"].parts
        assert parts(make_agent("adaptive-pull", make_context(2))) == (
            "adaptive", "none", "pledge"
        )

    def test_fixed_window_variant_registered(self, make_context):
        agent = make_agent("pull-100-fixed", make_context(3))
        assert (agent.pull, agent.respond) == ("window", "pledge")
        assert agent.help.adaptive is False
        assert agent.help.interval == agent.config.upper_limit
        assert agent.community is None

    def test_unknown_name_raises(self, make_context):
        with pytest.raises(KeyError):
            make_agent("gossipd", make_context(0))

    def test_duplicate_registration_rejected(self):
        realtor = PROTOCOLS["realtor"]
        with pytest.raises(ValueError):
            alias_table([realtor, Protocol("realtor", (), "a second realtor")])
        with pytest.raises(ValueError):
            alias_table([realtor, Protocol("realtor-2", ("REALTOR-100",), "")])

    def test_protocol_names_sorted(self):
        names = protocol_names()
        assert names == sorted(names)
        assert "realtor" in names


def _pinned_run(protocol: str, attacked: bool):
    """(trace sha256, events executed, RunResult sha256) of one short run."""
    cfg = ExperimentConfig(
        protocol=protocol, arrival_rate=8.0, horizon=120.0, seed=7, trace=True,
        # compromised nodes exercise every `safe` branch of the handlers
        attack=AttackConfig(start=20.0, dwell=10.0, victims=6) if attacked else None,
    )
    system = build_system(cfg)
    system.run()
    trace = hashlib.sha256()
    for rec in system.sim.trace.records:
        trace.update(
            repr((rec.time, rec.category, tuple(sorted(rec.payload.items())))).encode()
        )
    result = json.dumps(
        dataclasses.asdict(system.result()), sort_keys=True, default=repr
    )
    return (
        trace.hexdigest(),
        system.sim.events_executed,
        hashlib.sha256(result.encode()).hexdigest(),
    )


#: every protocol row, plain, and the six rows with parts under
#: attack: a handler change that moves any message, trace record or
#: metric fails here
PINNED_RUNS = {
    ('gossip', False): (
        'f72032fef1191bcf18925a30eb96103040a5b67f0f4d5a3b6ea9511a58f8a785',
        9928,
        '54a48b1a697474ecaee5557ed8a793729ccb57335f2a08725d87eb1da4b9f64f',
    ),
    ('gossip-5', False): (
        'd5c8a50b192f080cb263f691c926df64e17524dc61278b0543ef923ed71995c0',
        2728,
        '5cb058d09baa3aa327f1947f81e287e7931b00a0c2925adcf86e13052c656529',
    ),
    ('none', False): (
        'dbea5cebc77171f56784cf88948641c8d44803362fed805c036a6c95f9da7faa',
        940,
        'eab35a34494dff8350862c7dea5bf9114e7b40a4554e8b9ec2fa38bd6c9b5f05',
    ),
    ('pull-.9', False): (
        'ba78910a8a3e2f3c912a39719f84768090ceda476018d9efe15a307925733998',
        1510,
        'cc488c7984b8d835c63399d305df64f266dd2edabf4961a9b98dfcb3b7e7c3a6',
    ),
    ('pull-100', False): (
        'f700c88d2c89c7f0c9afcdfd9760322430792a5ec749470f71c008c99e98289f',
        1432,
        '23f616453ad5f764f459083a92259b5d3a3d7ecb3cd193e4992024deb216cc84',
    ),
    ('pull-100-fixed', False): (
        '2ef21d41bb19c72a9c6fe2fd120d1e4bac48f317abfcafe39e3aa44433f7bcf0',
        1066,
        '896c929beec8f8dfd1758ef253c17187d1bb6d8805b6bde26fcf663072585a23',
    ),
    ('push-.9', False): (
        'a2a5950fc034e16fa5eda20ef5d4358a64cdb62e15161c038d60a0a68ce727af',
        1190,
        '2afa9e7e80620d9308025daca622fa2c6f6039427455b0d8fe3dcd5fa26dc46a',
    ),
    ('push-1', False): (
        '6686c317b22acd8c3ba06b264fdabfaa58aacd5d41458853ccc3e8abc290201f',
        6944,
        '175e57e52de3e6ef1a63f465d140e9408e8df1c3246ddea3eb0acb4b8b54eac7',
    ),
    ('realtor', False): (
        '1ec74dab90564aa977c45340d07b6f3cf3ea20d179761a74caf3233ec761b34f',
        1619,
        '68208a8da88d3fa4518b9ba1db6b4240aa2aaa01ea829a979f3246335ae92350',
    ),
    ('realtor-hier', False): (
        '0f62c6883888727be2de58bd84d41fd3478e39e2023428ca8e703d4011db1702',
        2097,
        '1a0df6e5cc05a887ecfec5307952eb4f74b5aeb4ef2ba415069b90cb897a1eff',
    ),
    ('realtor-hier-25', False): (
        '36644b7799e3fde8cece817887fbcf05ccae7f46807e3a4dc27d9c13358f861a',
        4382,
        'f2a510b8c66d1e0305d9e5f35d01627e1726b02e5ef8731a29660ffa1f14ea66',
    ),
    ('pull-.9', True): (
        '7293beb12505a176e8af4a4ef32f321066e7b3a9c98f22d4de0df89ace47d0a3',
        1697,
        '0b99bb4ad972a44d8b6f268654b2a31714f3537f22caf7584ef3ccb3f7ffea34',
    ),
    ('push-1', True): (
        '0be327ec729019466df1bf96d26d4dfb96ec81bd163969da740e084971797907',
        7024,
        '35f2aa7635b5d9b3d9bcb3e0988b6086275d8478fd1276dbae8d91a37fdd21cc',
    ),
    ('push-.9', True): (
        '81078ee62eb311e1142158d79f68934d255628f825fd86fb5639b5069bcb581b',
        1369,
        'f08a6a0a2419fa386b8eec62fb436656798aea39e7e7c86c8f0870f902601b28',
    ),
    ('pull-100', True): (
        '9d22747737038229f91e35c2f55d049b56d27cf588e0c8b36dfb1530f0f72329',
        1638,
        '8940fe53a39d0f7bcdce17259a84e06d1ba146182db8d9a64630906a065a59b2',
    ),
    ('pull-100-fixed', True): (
        'f22e3090ce0eb12315e91980020d4b92360e6fe22104a80f5047e1dbc6f26003',
        1237,
        '68622b0ae88451e0084e0b6393b4c13a6a4017aa981ce60a2a54548a5edc270a',
    ),
    ('realtor', True): (
        '1c7326a6058d394b29be777338db296e5eb532dbb95ba46ec1a0b918fe73c15f',
        1886,
        '73a5fbc948d00095c6bdaf17dcc4a19472b2c0be6a021a0394d5578f2858ccdd',
    ),
}


def test_pins_cover_every_protocol():
    assert sorted(p for p, attacked in PINNED_RUNS if not attacked) == protocol_names()


@pytest.mark.parametrize(
    "protocol, attacked",
    list(PINNED_RUNS),
    ids=[f"{p}-{'attacked' if a else 'plain'}" for p, a in PINNED_RUNS],
)
def test_pinned_run(protocol, attacked):
    assert _pinned_run(protocol, attacked) == PINNED_RUNS[protocol, attacked]


class TestProtocolConfig:
    def test_paper_defaults(self):
        cfg = ProtocolConfig()
        assert cfg.threshold == 0.9
        assert cfg.push_interval == 1.0
        assert cfg.upper_limit == 100.0
        assert cfg.scope == "neighbors"

    @pytest.mark.parametrize(
        "field, value", [("response_timeout", 0.0), ("membership_ttl", -1.0)]
    )
    def test_timeouts_must_be_positive(self, field, value):
        # rejected here, not first when a realtor agent is built (maybe in
        # a pool worker after the other cells ran); a push-1 cell, which
        # builds neither Algorithm H nor a membership table, would run
        with pytest.raises(ValueError, match=field):
            ProtocolConfig(**{field: value})

    def test_with_copy(self):
        cfg = ProtocolConfig()
        other = cfg.with_(threshold=0.5)
        assert other.threshold == 0.5
        assert cfg.threshold == 0.9  # frozen original untouched

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(threshold=1.0)
        with pytest.raises(ValueError):
            ProtocolConfig(push_interval=0.0)
        with pytest.raises(ValueError):
            ProtocolConfig(beta=1.0)
        with pytest.raises(ValueError):
            ProtocolConfig(upper_limit=0.5)
        with pytest.raises(ValueError):
            ProtocolConfig(scope="galaxy")


class TestSharedBehaviour:
    def test_prime_view_network_scope(self, sim, transport, make_host, make_context):
        from repro.protocols.base import ProtocolConfig as PC

        ctx = make_context(0, config=PC(scope="network"))
        agent = make_agent("realtor", ctx)
        hosts = {n: make_host(n) for n in transport.topo.nodes() if n != 0}
        hosts[0] = ctx.host
        agent.prime_view(hosts)
        assert len(agent.view) == transport.topo.num_nodes - 1

    def test_prime_view_neighbor_scope(self, make_context, make_host, transport):
        ctx = make_context(12)  # centre of the 5x5 mesh
        agent = make_agent("realtor", ctx)
        hosts = {n: make_host(n) for n in transport.topo.nodes()}
        agent.prime_view(hosts)
        assert agent.view.known_nodes() == [7, 11, 13, 17]

    def test_usage_with_includes_task(self, make_context, make_task):
        ctx = make_context(0)
        agent = make_agent("realtor", ctx)
        from repro.node.task import TaskOutcome

        ctx.host.try_accept(make_task(size=88.0), TaskOutcome.LOCAL)
        assert agent.would_exceed_threshold(make_task(size=5.0))
        assert not agent.would_exceed_threshold(make_task(size=1.0))

    def test_candidates_sized_to_task(self, make_context, make_task):
        ctx = make_context(0)
        agent = make_agent("realtor", ctx)
        agent.view.update(1, 4.0, 0.5, True, 0.0)
        agent.view.update(2, 50.0, 0.5, True, 0.0)
        assert agent.candidates(make_task(size=10.0)) == [2]
