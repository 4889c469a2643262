"""The paper's core contribution: Algorithms H and P, community soft
state and the HELP/PLEDGE wire messages.  REALTOR itself is the
``realtor`` row of :data:`repro.protocols.registry.PROTOCOLS`, built
from these parts by :class:`repro.protocols.base.DiscoveryAgent`."""

from .algorithm_h import HelpScheduler
from .algorithm_p import PledgePolicy
from .community import Community, MembershipTable
from .messages import KIND_ADV, KIND_HELP, KIND_PLEDGE, Advertisement, Help, Pledge

__all__ = [
    "HelpScheduler",
    "PledgePolicy",
    "Community",
    "MembershipTable",
    "KIND_ADV",
    "KIND_HELP",
    "KIND_PLEDGE",
    "Advertisement",
    "Help",
    "Pledge",
]
