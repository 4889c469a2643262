"""Community soft state (Section 4).

"Each host establishes its own community for future software component
migration, which is a set of nodes able to receive a migrating
component. ... The membership of a node in a community is valid only for
the interval between two consecutive refresh messages."

Two bookkeeping structures:

* :class:`Community` — the *organizer's* side: the PLEDGE list, each
  member tagged with its last pledge time.  Members that stop responding to
  refreshes (HELPs) "de facto leave" — expressed as a refresh round: a
  HELP opens a new round; members that have not pledged within the
  soft-state window are swept.
* :class:`MembershipTable` — the *member's* side: which communities this
  node has joined, refreshed by incoming HELPs, expired after
  ``membership_ttl`` of organizer silence ("when a community organizer
  stops sending refresh messages, the community will naturally disband").

Both are pure state machines with explicit ``now`` arguments — no kernel
dependency — so they are trivially property-testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Community", "MembershipTable"]


class Community:
    """The organizer's PLEDGE list: each member's last pledge time.

    What a member reported lives in the organizer's
    :class:`~repro.protocols.view.ResourceView`; the community only
    decides who is still a member.

    Parameters
    ----------
    member_ttl:
        Seconds of pledge silence after which a member is swept.  This is
        the soft-state window: in the paper membership lapses when a
        member misses a refresh; with adaptive HELP intervals the window
        must cover at least one ``Upper_limit``.
    """

    def __init__(self, member_ttl: float = 200.0) -> None:
        if member_ttl <= 0:
            raise ValueError("member_ttl must be positive")
        self.member_ttl = float(member_ttl)
        #: member id -> time of its last PLEDGE
        self.members: Dict[int, float] = {}

    def note_refresh(self, now: float) -> List[int]:
        """A HELP (refresh) went out: sweep silent members.

        Returns the ids of members dropped in this sweep.
        """
        members = self.members
        dropped = [nid for nid, last in members.items() if now - last > self.member_ttl]
        for nid in dropped:
            del members[nid]
        return dropped

    def on_pledge(self, node: int, now: float) -> bool:
        """Record a PLEDGE from ``node``; ``True`` if it is a new member."""
        is_new = node not in self.members
        self.members[node] = now
        return is_new

    def size(self) -> int:
        return len(self.members)


@dataclass
class MembershipTable:
    """Member-side view: communities this node currently belongs to."""

    owner: int
    membership_ttl: float = 200.0
    _joined: Dict[int, float] = field(default_factory=dict)  # organizer -> last HELP time

    def __post_init__(self) -> None:
        if self.membership_ttl <= 0:
            raise ValueError("membership_ttl must be positive")

    def on_help(self, organizer: int, now: float) -> None:
        """A HELP refresh from ``organizer`` (joining or renewing)."""
        if organizer == self.owner:
            raise ValueError("a node does not join its own community")
        self._joined[organizer] = now

    def renew(self, organizer: int, now: float) -> None:
        """A HELP refresh from a community this node is already in: renew
        the membership, or end it if the organizer has been silent past
        ``membership_ttl`` (a late HELP must not revive it).  O(1): only
        this organizer's last refresh is read."""
        last = self._joined.get(organizer)
        if last is None:
            return
        if now - last > self.membership_ttl:
            del self._joined[organizer]
        else:
            self._joined[organizer] = now

    def leave(self, organizer: int) -> None:
        self._joined.pop(organizer, None)

    def expire(self, now: float) -> List[int]:
        """Drop communities whose organizer has gone silent; returns them."""
        gone = [
            org for org, last in self._joined.items() if now - last > self.membership_ttl
        ]
        for org in gone:
            del self._joined[org]
        return gone

    def organizers(self, now: Optional[float] = None) -> List[int]:
        """Live community organizers (expiring lazily when ``now`` given)."""
        if now is not None:
            self.expire(now)
        return sorted(self._joined)

    def count(self, now: Optional[float] = None) -> int:
        """The PLEDGE field 'number of communities of which it is a member'."""
        if now is not None:
            self.expire(now)
        return len(self._joined)

    def __contains__(self, organizer: int) -> bool:
        return organizer in self._joined
