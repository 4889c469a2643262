"""Discovery protocols: the one agent, the protocol table and the
machinery they share (resource view, candidate ranking)."""

from .base import DiscoveryAgent, ProtocolConfig, ProtocolContext
from .registry import (
    PAPER_PROTOCOLS,
    PROTOCOLS,
    Protocol,
    make_agent,
    protocol_names,
)
from .view import ResourceView, ViewEntry

__all__ = [
    "DiscoveryAgent",
    "ProtocolConfig",
    "ProtocolContext",
    "PAPER_PROTOCOLS",
    "PROTOCOLS",
    "Protocol",
    "make_agent",
    "protocol_names",
    "ResourceView",
    "ViewEntry",
]
