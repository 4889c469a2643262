"""Network substrate: overlay topology, routing, transport, faults."""

from .faults import FaultEvent, FaultManager, NodeState
from .generators import (
    binary_tree,
    full_mesh,
    mesh,
    paper_topology,
    random_regularish,
    ring,
    star,
    torus,
)
from .routing import Router, bfs_distances
from .topology import Link, NodeId, Topology
from .transport import CostModel, Delivery, Transport, UnicastCostMode

__all__ = [
    "FaultEvent",
    "FaultManager",
    "NodeState",
    "binary_tree",
    "full_mesh",
    "mesh",
    "paper_topology",
    "random_regularish",
    "ring",
    "star",
    "torus",
    "Router",
    "bfs_distances",
    "Link",
    "NodeId",
    "Topology",
    "CostModel",
    "Delivery",
    "Transport",
    "UnicastCostMode",
]
