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
        10518,
        'c5bd52e3357c0ae21e495f226a2bd06b096e9c7635b96cb2d2ea6b7931653d9a',
    ),
    ('gossip-5', False): (
        '3b46b8eacd96e8ee6ddf00e858be93bc09437fe03575232f38abfdcfa00f1b23',
        3323,
        '65bd9bc105755198c7eb1dcdfeb419131b3f01df999e1a4e84bbd1e0cdd4b819',
    ),
    ('none', False): (
        '5c151665558ba52b7d193f09ddfdf7442bc9a634b7d4e5a5612d1aa164fdaf54',
        1535,
        'ee361d13e41749be68d6eed80424004c72aca8c2fc268456ab5caa6176c8ea18',
    ),
    ('pull-.9', False): (
        '89747f284afd470dbf3943f348cb4b5bb18821d53b31743558bf76bc6ede9fa6',
        2394,
        'a01d45aa6f341079c600a3a52d0ed8ab34df94437c436b93873cbe2bb4447f5d',
    ),
    ('pull-100', False): (
        'e791b026b7bd0622ca4515817e1bb671c105624d1d43ff722a2bc991a36ad503',
        2259,
        '9a3df0224dacc5524a0e8a3d481eb5ddf80dfbca9a6539f4cd7e7c384ee91b18',
    ),
    ('pull-100-fixed', False): (
        'eaa703e01df1d7e6139800841bbca11da05535bdaba5040067803dc4bb90bb0e',
        1693,
        'eb7bf38d32b006d09304fb1a850bec2b76a93f8b7132d4d139108dd0af8e4d0b',
    ),
    ('push-.9', False): (
        'a2a5950fc034e16fa5eda20ef5d4358a64cdb62e15161c038d60a0a68ce727af',
        1903,
        '9092adf67e53aa40cdac4f6cc17c3a0fa3a12aa95631296911bb58de138ca836',
    ),
    ('push-1', False): (
        '3079f9dfeda38b1b0bb60881ff5bb1df13bf4fd840a9fca2e3f5bc9faee98c1a',
        14071,
        'e693a79ecf1b037de2511a5fa2e36123e39d3811832a9c76743e360ce6d914dd',
    ),
    ('realtor', False): (
        '1ec74dab90564aa977c45340d07b6f3cf3ea20d179761a74caf3233ec761b34f',
        2389,
        'aa50fa658979d9ae750b99538ee68d2b253eccebbdd02c7cbf72544fc0ac3a9e',
    ),
    ('realtor-hier', False): (
        '0f62c6883888727be2de58bd84d41fd3478e39e2023428ca8e703d4011db1702',
        3332,
        'bd160a0867875dab887b3902cc9f18f996528e2558fe0ca689f1f3b4a043f1f9',
    ),
    ('realtor-hier-25', False): (
        '36644b7799e3fde8cece817887fbcf05ccae7f46807e3a4dc27d9c13358f861a',
        7631,
        '36fe888b91b28f7d4b7da75ee9a0ce81aa029af55afaf36bceed0cc817146258',
    ),
    ('pull-.9', True): (
        '3ed96495ed7e78a8de85e7fbbad9e20b628319bf635d39da94167bf81bdfd2a5',
        2611,
        '4a9ee497950e29ca5cac015f49e5f934c176906bd7d998f9e6bf4ca812e2ba25',
    ),
    ('push-1', True): (
        '8e17d1b71dff682e4dc64b094de28841107673402bc57d065e83bd5bdab16958',
        14006,
        'e737e8a3074dc0a678bff0c89159db2b82985e312a99a7385ec2af78c67e3b4c',
    ),
    ('push-.9', True): (
        '81078ee62eb311e1142158d79f68934d255628f825fd86fb5639b5069bcb581b',
        2110,
        '683cbce2bb45c274c50ad7b7674aa0530d13686037393a54644b2c3f0a0b5846',
    ),
    ('pull-100', True): (
        '174e79813e3e7830f1b99544545d9f29eecc1322d7d27f4397655de30781f3dc',
        2518,
        '4c469f4c389ae0c0d1fdad26a41f748ff58d4540c96c1ba8997076eec1c710bc',
    ),
    ('pull-100-fixed', True): (
        '5616f479635bd7c84a9e87d8056d1ee4c520f64be6092a9f82e3e0bcfc93e86d',
        1877,
        '64c12d64e40bc80dc8bfd45784a2361210a3e5d02c9cd9180669aec9cffbc1a9',
    ),
    ('realtor', True): (
        '1c7326a6058d394b29be777338db296e5eb532dbb95ba46ec1a0b918fe73c15f',
        2692,
        '0e93d7648eb24ceb333dc16e98bcbd1ca6765ebdf711aa1147c5cf9710a5f97e',
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
