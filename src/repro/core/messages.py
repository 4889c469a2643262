"""Wire messages of the community protocol.

Section 4 defines exactly two message types with these fields:

HELP
    *Hostid* (community organizer), *Type*, *number of current members*,
    *degree of demand* (urgency of the resource request).

PLEDGE
    *Hostid* (pledger), *Type*, *resource availability (degree)*, *number
    of communities of which it is a member*, *probabilities of resource
    grant when requested (distribution)*.

The baseline protocols additionally use an ``ADV`` advertisement (the
push-based dissemination payload) which carries the same availability
fields as a PLEDGE, without community semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Help", "Pledge", "Advertisement", "KIND_HELP", "KIND_PLEDGE", "KIND_ADV"]

# Transport message-kind tags (the metric collector groups costs by these).
KIND_HELP = "HELP"
KIND_PLEDGE = "PLEDGE"
KIND_ADV = "ADV"


@dataclass(frozen=True)
class Help:
    """Community invitation / refresh, flooded by the organizer."""

    organizer: int
    members: int            # current community size (advertised)
    demand: float           # urgency: seconds of work seeking a home
    sent_at: float
    #: correlation id, unique per organizer (``(organizer, help_id)`` is
    #: globally unique); pledges echo it back so the observability layer
    #: can reconstruct HELP→PLEDGE causality spans.  ``-1`` = untracked.
    help_id: int = -1

    def __post_init__(self) -> None:
        if self.members < 0:
            raise ValueError("member count cannot be negative")
        if self.demand < 0:
            raise ValueError("demand cannot be negative")


@dataclass(frozen=True)
class Pledge:
    """Availability report, unicast from a member to an organizer."""

    pledger: int
    availability: float     # seconds of queue headroom
    usage: float            # queue usage fraction in [0, 1]
    communities: int        # how many communities the pledger belongs to
    grant_probability: float  # estimated P(grant | request) — see PledgePolicy
    sent_at: float
    #: the ``Help.help_id`` this pledge answers; ``-1`` for
    #: crossing-triggered pledges (Algorithm P trigger 2), which answer
    #: no HELP and therefore belong to no causality span
    in_reply_to: int = -1

    def __post_init__(self) -> None:
        if self.availability < 0:
            raise ValueError("availability cannot be negative")
        if not 0.0 <= self.usage <= 1.0:
            raise ValueError(f"usage out of range: {self.usage}")
        if not 0.0 <= self.grant_probability <= 1.0:
            raise ValueError(f"grant probability out of range: {self.grant_probability}")


@dataclass(frozen=True)
class Advertisement:
    """Push-based state dissemination used by the baseline protocols."""

    origin: int
    availability: float
    usage: float
    available: bool         # origin's own below-threshold verdict
    sent_at: float

    def __post_init__(self) -> None:
        if self.availability < 0:
            raise ValueError("availability cannot be negative")
        if not 0.0 <= self.usage <= 1.0:
            raise ValueError(f"usage out of range: {self.usage}")
