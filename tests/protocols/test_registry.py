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
        'edacc778f593c1fb82469ee76774115b879ebd4cae914ee46e4a8672b094576b',
    ),
    ('gossip-5', False): (
        'd5c8a50b192f080cb263f691c926df64e17524dc61278b0543ef923ed71995c0',
        2728,
        '4d8105a75d196e2ec95294a4e3a30abbcbba0c4bebdc13391fc83daac558e7ec',
    ),
    ('none', False): (
        'dbea5cebc77171f56784cf88948641c8d44803362fed805c036a6c95f9da7faa',
        940,
        '90c7c46f48bfb370142aa1650ab428cfee13f1f8831e7e02c0d386760f6089b8',
    ),
    ('pull-.9', False): (
        'ba78910a8a3e2f3c912a39719f84768090ceda476018d9efe15a307925733998',
        1802,
        '2f96c9da887ee2d304fc3f47835325b15218785fe62fc475b8c8c82cfe553f96',
    ),
    ('pull-100', False): (
        'f700c88d2c89c7f0c9afcdfd9760322430792a5ec749470f71c008c99e98289f',
        1673,
        '8a134843b41158bd42c6a163c2f234e9fe1f3d26c08af1a13d827252160b01ac',
    ),
    ('pull-100-fixed', False): (
        '2ef21d41bb19c72a9c6fe2fd120d1e4bac48f317abfcafe39e3aa44433f7bcf0',
        1097,
        'd40931414aa2c226aa915ad250e85bf3067dbf9cbd7b94e4eedcdd94cfe410ae',
    ),
    ('push-.9', False): (
        'a2a5950fc034e16fa5eda20ef5d4358a64cdb62e15161c038d60a0a68ce727af',
        1384,
        'c1661388a8e26da9b02b747ce4efa066d23efc0f095aea70c2ad932e1d215c42',
    ),
    ('push-1', False): (
        '6686c317b22acd8c3ba06b264fdabfaa58aacd5d41458853ccc3e8abc290201f',
        13490,
        '68b67310d4fc8d95c9ffc63cea50bfa6801fd809256d7c1cb46c2a52a17f61ed',
    ),
    ('realtor', False): (
        '1ec74dab90564aa977c45340d07b6f3cf3ea20d179761a74caf3233ec761b34f',
        1873,
        '4884afd51512a8bbcb62b57b3828c2e48c8e7faaf973057f705c9d774ebb17f1',
    ),
    ('realtor-hier', False): (
        '0f62c6883888727be2de58bd84d41fd3478e39e2023428ca8e703d4011db1702',
        2818,
        '90cb353b586520f0f512a201f2744eee8d61b3f333a7cdee6c41baa0120d9625',
    ),
    ('realtor-hier-25', False): (
        '36644b7799e3fde8cece817887fbcf05ccae7f46807e3a4dc27d9c13358f861a',
        7119,
        '0d08a0cec8ba5c553851dd9af733bb1f5be5d2ea153cc89bc65c278e56d1353e',
    ),
    ('pull-.9', True): (
        '7293beb12505a176e8af4a4ef32f321066e7b3a9c98f22d4de0df89ace47d0a3',
        2009,
        '95282be7965615ec3f887234ebd97dc28630a69b3fc291ad4556d07eca70e316',
    ),
    ('push-1', True): (
        '0be327ec729019466df1bf96d26d4dfb96ec81bd163969da740e084971797907',
        13410,
        'cf7eb2c4e962511a2c3d7f1ccac9aefbe671a1cdf5a81e40f36084671ced9bd0',
    ),
    ('push-.9', True): (
        '81078ee62eb311e1142158d79f68934d255628f825fd86fb5639b5069bcb581b',
        1605,
        'eef8c0cd335b4db20f9b3e9e6de3a52fc063c3b86ea373d03522324806152b8b',
    ),
    ('pull-100', True): (
        '9d22747737038229f91e35c2f55d049b56d27cf588e0c8b36dfb1530f0f72329',
        1916,
        '56475e2fc3d08134c81800e4710776f7d9bae496a938cca81c99c4530a822a19',
    ),
    ('pull-100-fixed', True): (
        'f22e3090ce0eb12315e91980020d4b92360e6fe22104a80f5047e1dbc6f26003',
        1275,
        '0b79879fdcc3f411167670fb9da831f38a53d2d82cb44b7237a3ca230c06b723',
    ),
    ('realtor', True): (
        '1c7326a6058d394b29be777338db296e5eb532dbb95ba46ec1a0b918fe73c15f',
        2183,
        '0980d59b74aca58fbc6d5c5b6a39d8be72a2d8f7cb7db7b65e4f4d3bc2ef7e89',
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
