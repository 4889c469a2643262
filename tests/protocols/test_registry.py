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
        '231cd794937754a38500903b148b4fa1957fbe1dd17ed4e12048342eb674fb00',
    ),
    ('pull-100', False): (
        'f700c88d2c89c7f0c9afcdfd9760322430792a5ec749470f71c008c99e98289f',
        1673,
        '3713f9c3265095a3f971868f2a15826d2c2b5f53c04a0814686be617dc71aac0',
    ),
    ('pull-100-fixed', False): (
        '2ef21d41bb19c72a9c6fe2fd120d1e4bac48f317abfcafe39e3aa44433f7bcf0',
        1097,
        '131e6a269f23abf227e513e12b910739f4298065004d5957d06ac2118d2a2f83',
    ),
    ('push-.9', False): (
        'a2a5950fc034e16fa5eda20ef5d4358a64cdb62e15161c038d60a0a68ce727af',
        1384,
        'a64efd95faab4273d6f91ae49330be97f495544d9f6b6d4f3a74be28c6ce1229',
    ),
    ('push-1', False): (
        '6686c317b22acd8c3ba06b264fdabfaa58aacd5d41458853ccc3e8abc290201f',
        13490,
        '68b67310d4fc8d95c9ffc63cea50bfa6801fd809256d7c1cb46c2a52a17f61ed',
    ),
    ('realtor', False): (
        '1ec74dab90564aa977c45340d07b6f3cf3ea20d179761a74caf3233ec761b34f',
        1873,
        'e71bb6d175449f9d303cc536fa2a53eb4e1edfccd7ed598087410a54f1eb2a02',
    ),
    ('realtor-hier', False): (
        '0f62c6883888727be2de58bd84d41fd3478e39e2023428ca8e703d4011db1702',
        2818,
        'a3e77b398c5c258acf318797539fbff08960fd6bf4f2ed1cd598c79d9e5ae68a',
    ),
    ('realtor-hier-25', False): (
        '36644b7799e3fde8cece817887fbcf05ccae7f46807e3a4dc27d9c13358f861a',
        7119,
        '4844a1d91f5d65bfcd15254a7e567fc87a584ffbe967c18c3883d9dedd4305d3',
    ),
    ('pull-.9', True): (
        '7293beb12505a176e8af4a4ef32f321066e7b3a9c98f22d4de0df89ace47d0a3',
        2009,
        '31d222334e54885a7ed244fa1f890fa650f59b4b69a4e3969634240e281b9613',
    ),
    ('push-1', True): (
        '0be327ec729019466df1bf96d26d4dfb96ec81bd163969da740e084971797907',
        13410,
        '4665cb81bbbdfa236da544ae76186b0c817d10727b03fdcece0664e16471d840',
    ),
    ('push-.9', True): (
        '81078ee62eb311e1142158d79f68934d255628f825fd86fb5639b5069bcb581b',
        1605,
        '184ef7c95160d9aa76254258c52d67817ed70427febef9b73b85b2e97fbe6b2f',
    ),
    ('pull-100', True): (
        '9d22747737038229f91e35c2f55d049b56d27cf588e0c8b36dfb1530f0f72329',
        1916,
        '5ff25801059787b2cd825e119d564330470323695608a3cb18e863ef9e72ed99',
    ),
    ('pull-100-fixed', True): (
        'f22e3090ce0eb12315e91980020d4b92360e6fe22104a80f5047e1dbc6f26003',
        1275,
        'a5a98441a9ce7e117b338928f8ac00ce28cabb3fd81efc9bc69832f3b2fc66e5',
    ),
    ('realtor', True): (
        '1c7326a6058d394b29be777338db296e5eb532dbb95ba46ec1a0b918fe73c15f',
        2183,
        'a9e4ba39d54a7ddfe7e4aad18454385dd778f77c7a550c9ae82e3a717c86eaa6',
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
