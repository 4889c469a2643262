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
        '8513e901dca6d4a2ec18cead1f2bc0bed477360520ebe1ba0b0fd630f1452023',
        10002,
        'c5bd52e3357c0ae21e495f226a2bd06b096e9c7635b96cb2d2ea6b7931653d9a',
    ),
    ('gossip-5', False): (
        '3b46b8eacd96e8ee6ddf00e858be93bc09437fe03575232f38abfdcfa00f1b23',
        2807,
        '65bd9bc105755198c7eb1dcdfeb419131b3f01df999e1a4e84bbd1e0cdd4b819',
    ),
    ('none', False): (
        '5c151665558ba52b7d193f09ddfdf7442bc9a634b7d4e5a5612d1aa164fdaf54',
        1003,
        'ed9a35ea0acc4200179c09e6d1691b561554c21d564f9814024ca8ff9f5ccd82',
    ),
    ('pull-.9', False): (
        '89747f284afd470dbf3943f348cb4b5bb18821d53b31743558bf76bc6ede9fa6',
        1878,
        '6be5e14e304d97ff558a4836a60f9bc3197777ff938679498d76873f13ed2730',
    ),
    ('pull-100', False): (
        'e791b026b7bd0622ca4515817e1bb671c105624d1d43ff722a2bc991a36ad503',
        1742,
        '50a4ee0647f02c96a19b07e5f148330e8a68b30ba623f4e82260acbbfd4a7ac4',
    ),
    ('pull-100-fixed', False): (
        'eaa703e01df1d7e6139800841bbca11da05535bdaba5040067803dc4bb90bb0e',
        1174,
        '5a95d493e9c1e4f85ff8cf9c71a4db216511bac7ed6af3b6beadb6e88150ce4d',
    ),
    ('push-.9', False): (
        'a2a5950fc034e16fa5eda20ef5d4358a64cdb62e15161c038d60a0a68ce727af',
        1384,
        '7cb07a2f69bb8ee6552abc9831b63f21a84ae4a6a967ce3ae867f36a05770ba0',
    ),
    ('push-1', False): (
        '3079f9dfeda38b1b0bb60881ff5bb1df13bf4fd840a9fca2e3f5bc9faee98c1a',
        13562,
        '19f79ab23c247246c4ab44f05bbf215e63ebe5bccbcdf9c7998858e9ce3a5a01',
    ),
    ('realtor', False): (
        '1ec74dab90564aa977c45340d07b6f3cf3ea20d179761a74caf3233ec761b34f',
        1873,
        '1e8c926118434cfd7900a5bd2565bfe971da22d79517f152bbebe9b93c5f8762',
    ),
    ('realtor-hier', False): (
        '0f62c6883888727be2de58bd84d41fd3478e39e2023428ca8e703d4011db1702',
        2818,
        'bff49dc71a2b45bb557d6470ff3121a6c5e3211110da1368b11313be85d3692a',
    ),
    ('realtor-hier-25', False): (
        '36644b7799e3fde8cece817887fbcf05ccae7f46807e3a4dc27d9c13358f861a',
        7119,
        '22d1cb7c8d3ab3fc3f5275177b1e9b8a5ce0bced280e719afb490b46788cac33',
    ),
    ('pull-.9', True): (
        '3ed96495ed7e78a8de85e7fbbad9e20b628319bf635d39da94167bf81bdfd2a5',
        2102,
        'cecda54409753af0979573f3798dde01648e67f44d8e9067744c86c93c56879a',
    ),
    ('push-1', True): (
        '8e17d1b71dff682e4dc64b094de28841107673402bc57d065e83bd5bdab16958',
        13497,
        '1d5e9714f4423a5153bae55db8ac400ce30b75d83a38b34d207676351fd96bdb',
    ),
    ('push-.9', True): (
        '81078ee62eb311e1142158d79f68934d255628f825fd86fb5639b5069bcb581b',
        1605,
        'ab51f667dc3963742ac0d12025a4277f892802f1e006922b5d117adc6397a48b',
    ),
    ('pull-100', True): (
        '174e79813e3e7830f1b99544545d9f29eecc1322d7d27f4397655de30781f3dc',
        2009,
        '8f690d0074a0069a219ab1b8482323dd81b355d2af9cc6b74a8e0578e7c444d2',
    ),
    ('pull-100-fixed', True): (
        '5616f479635bd7c84a9e87d8056d1ee4c520f64be6092a9f82e3e0bcfc93e86d',
        1370,
        '80c36725e62afc61939be7e8585ef242b0e8a671fc04b8f91f3c070e94c8c86a',
    ),
    ('realtor', True): (
        '1c7326a6058d394b29be777338db296e5eb532dbb95ba46ec1a0b918fe73c15f',
        2183,
        '5c218c8f23e1c4ad58b7364cd0b60f3c780aa8f8e4d5a5493a66a0b45b18e8e5',
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
