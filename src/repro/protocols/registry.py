"""The protocol table — name → the parts its agent is built from.

Experiments select protocols by the curve names used in the paper's
figures.  The paper's protocols, the fixed-window variant and the
no-discovery floor are rows of :data:`PROTOCOLS`: each names a pull
trigger, a push trigger and a responder (see :mod:`repro.protocols.base`)
and :class:`~repro.protocols.base.DiscoveryAgent` builds exactly those.
Aliases map both taxonomy names ("pure-push") and curve labels
("push-1") to the same row.  Agents beyond the rows — gossip and the
Section 7 hierarchy — are subclasses registered by factory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .base import DiscoveryAgent, ProtocolContext
from .gossip import GossipAgent

__all__ = [
    "Protocol",
    "PROTOCOLS",
    "make_agent",
    "protocol_names",
    "PAPER_PROTOCOLS",
    "register_protocol",
]

Factory = Callable[[ProtocolContext], DiscoveryAgent]

_REGISTRY: Dict[str, Factory] = {}
_CANONICAL: Dict[str, str] = {}

#: the five curves of Figures 5-8, in the paper's legend order
PAPER_PROTOCOLS: List[str] = ["pull-.9", "push-1", "push-.9", "pull-100", "realtor"]


@dataclass(frozen=True)
class Protocol:
    """One row: a protocol as the paper defines it, by its parts."""

    name: str  #: registry key and figure label, e.g. ``"push-1"``
    aliases: Tuple[str, ...]
    doc: str  #: what the paper (or this reproduction) says it is
    pull: str = "none"
    push: str = "none"
    respond: str = "none"

    @property
    def parts(self) -> Tuple[str, str, str]:
        return (self.pull, self.push, self.respond)

    def agent(self, ctx: ProtocolContext) -> DiscoveryAgent:
        """This row's agent for one node."""
        return DiscoveryAgent(ctx, *self.parts)


PROTOCOLS: Dict[str, Protocol] = {row.name: row for row in (
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
)}


def register_protocol(canonical: str, factory: Factory, *aliases: str) -> None:
    """Register a protocol factory under its canonical name and aliases."""
    key = canonical.lower()
    if key in _REGISTRY:
        raise ValueError(f"protocol already registered: {canonical}")
    _REGISTRY[key] = factory
    _CANONICAL[key] = key
    for alias in aliases:
        a = alias.lower()
        if a in _CANONICAL:
            raise ValueError(f"alias already registered: {alias}")
        _CANONICAL[a] = key


for _row in PROTOCOLS.values():
    register_protocol(_row.name, _row.agent, *_row.aliases)
register_protocol("gossip", GossipAgent, "anti-entropy", "swim-like")
register_protocol("gossip-5", lambda ctx: GossipAgent(ctx, interval=5.0))


def is_protocol(name: str) -> bool:
    """Whether ``name`` is a registered protocol, canonical or alias."""
    return name.lower() in _CANONICAL


def make_agent(name: str, ctx: ProtocolContext) -> DiscoveryAgent:
    """Instantiate the protocol ``name`` (canonical or alias) for ``ctx``."""
    key = _CANONICAL.get(name.lower())
    if key is None:
        raise KeyError(
            f"unknown protocol {name!r}; known: {sorted(_CANONICAL)}"
        )
    return _REGISTRY[key](ctx)


def protocol_names() -> List[str]:
    """All canonical protocol names."""
    return sorted(_REGISTRY)


# The Section 7 hierarchy registers realtor-hier*.  Imported last: it
# subclasses DiscoveryAgent, so it may itself be what is importing this.
from ..core import hierarchy  # noqa: E402,F401
