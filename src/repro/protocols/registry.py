"""The protocol table — name → the agent and the parts it is built from.

Experiments select protocols by the curve names used in the paper's
figures.  Every protocol is a row of :data:`PROTOCOLS`: each names a pull
trigger, a push trigger and a responder (see :mod:`repro.protocols.base`),
the agent class that builds them and that class's keyword arguments.
The paper's protocols, the fixed-window variant and the no-discovery
floor are plain :class:`~repro.protocols.base.DiscoveryAgent` rows;
gossip and the Section 7 hierarchy are rows of their own subclasses.
Aliases map both taxonomy names ("pure-push") and curve labels
("push-1") to the same row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple, Type

from .base import DiscoveryAgent, ProtocolContext
from .gossip import GossipAgent
from .hierarchy import HierarchicalRealtorAgent

__all__ = [
    "Protocol",
    "PROTOCOLS",
    "alias_table",
    "is_protocol",
    "make_agent",
    "protocol_names",
    "PAPER_PROTOCOLS",
]

#: the five curves of Figures 5-8, in the paper's legend order
PAPER_PROTOCOLS: List[str] = ["pull-.9", "push-1", "push-.9", "pull-100", "realtor"]


@dataclass(frozen=True)
class Protocol:
    """One row: a protocol as the paper defines it, by its parts, and the
    agent class that builds them."""

    name: str  #: table key and figure label, e.g. ``"push-1"``
    aliases: Tuple[str, ...]
    doc: str  #: what the paper (or this reproduction) says it is
    pull: str = "none"
    push: str = "none"
    respond: str = "none"
    #: the agent class built from the parts, and its keyword arguments
    cls: Type[DiscoveryAgent] = DiscoveryAgent
    kwargs: Mapping[str, object] = field(default_factory=dict)

    @property
    def parts(self) -> Tuple[str, str, str]:
        return (self.pull, self.push, self.respond)

    def agent(self, ctx: ProtocolContext) -> DiscoveryAgent:
        """This row's agent for one node."""
        return self.cls(ctx, *self.parts, **self.kwargs)


_ROWS = (
    Protocol(
        "pull-.9", ("pure-pull", "pull"),
        "Pure PULL: \"each host solicits PLEDGE from its community members whenever "
        "1) a task arrives and 2) the resource usage level is beyond a threshold "
        "level ... (without Upper_limit in Algorithm H)\".  Overhead grows with the "
        "arrival rate (Figure 6); under overload most hosts cannot pledge.",
        pull="every", respond="pledge",
    ),
    Protocol(
        "push-1", ("pure-push", "push"),
        "Pure PUSH: \"each host disseminates its own resource availability "
        "information to its neighbors unconditionally at every preset interval\" "
        "(1 s).  Load-independent, hence Figure 6's flat, dominating overhead.",
        push="periodic",
    ),
    Protocol(
        "push-.9", ("adaptive-push",),
        "Adaptive PUSH: \"each host disseminates its own resource availability "
        "information to its neighbors whenever the resource usage changes across a "
        "threshold level\"; near saturation it crosses most often (Figure 7's peak).",
        push="crossing",
    ),
    Protocol(
        "pull-100", ("adaptive-pull",),
        "Adaptive PULL: HELP \"in the same fashion as in REALTOR\", its interval "
        "capped at 100 time units, but \"it generates PLEDGE exactly once in response "
        "to each HELP\": the cheapest protocol (Figure 6), with the least timely views.",
        pull="adaptive", respond="pledge",
    ),
    Protocol(
        "pull-100-fixed", ("adaptive-pull-fixed",),
        "Adaptive PULL with Algorithm H frozen at Upper_limit: the plain time window "
        "(\"adaptive pull time window = 100\" in the figure captions).",
        pull="window", respond="pledge",
    ),
    Protocol(
        "realtor", ("realtor-100",),
        "REALTOR, \"adaptive PUSH + adaptive PULL combined\": HELPs under Algorithm "
        "H; below the threshold, a PLEDGE to each HELP and membership in its "
        "organizer's community; a PLEDGE to every joined community on each threshold "
        "crossing (Algorithm P).  All of it is soft state.",
        pull="adaptive", respond="community",
    ),
    Protocol(
        "none", ("null", "no-migration"),
        "No discovery: a node never communicates or learns, and tasks that do not "
        "fit locally are rejected — the floor that measures migration itself.",
    ),
    Protocol(
        "gossip", ("anti-entropy", "swim-like"),
        "Push-pull anti-entropy (not in the paper): every second a node swaps its "
        "whole view with one random neighbour, as SWIM-family membership protocols "
        "do.  Load-oblivious like a push, but each message is one unicast.",
        cls=GossipAgent,
    ),
    Protocol(
        "gossip-5", (),
        "Gossip with a 5 s exchange period.",
        cls=GossipAgent, kwargs={"interval": 5.0},
    ),
    Protocol(
        "realtor-hier", ("hierarchical",),
        "The Section 7 future work, \"inter-neighbor-group resource discovery\": "
        "REALTOR scoped to neighbour groups of about 9 nodes, with a failed HELP "
        "round escalated through the group gateways.",
        pull="adaptive", respond="community",
        cls=HierarchicalRealtorAgent, kwargs={"group_size": 9},
    ),
    Protocol(
        "realtor-hier-25", (),
        "The hierarchy with neighbour groups of about 25 nodes.",
        pull="adaptive", respond="community",
        cls=HierarchicalRealtorAgent, kwargs={"group_size": 25},
    ),
)
PROTOCOLS: Dict[str, Protocol] = {row.name: row for row in _ROWS}


def alias_table(rows: Iterable[Protocol]) -> Dict[str, str]:
    """Every name and alias of ``rows``, lower-cased, → its row's name.

    Raises ``ValueError`` when two rows share a name or an alias.
    """
    table: Dict[str, str] = {}
    for row in rows:
        for name in (row.name, *row.aliases):
            key = name.lower()
            if key in table:
                raise ValueError(f"protocol name used twice: {name}")
            table[key] = row.name
    return table


_NAMES = alias_table(_ROWS)


def is_protocol(name: str) -> bool:
    """Whether ``name`` is a protocol, canonical or alias."""
    return name.lower() in _NAMES


def make_agent(name: str, ctx: ProtocolContext) -> DiscoveryAgent:
    """Instantiate the protocol ``name`` (canonical or alias) for ``ctx``."""
    key = _NAMES.get(name.lower())
    if key is None:
        raise KeyError(
            f"unknown protocol {name!r}; known: {sorted(_NAMES)}"
        )
    return PROTOCOLS[key].agent(ctx)


def protocol_names() -> List[str]:
    """All canonical protocol names."""
    return sorted(PROTOCOLS)
