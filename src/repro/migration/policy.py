"""Migration-attempt policies.

The paper's evaluation uses a one-shot policy: "we measure the
performances of the five approaches with only a one-time migration try
to the best candidate destination node ... if the candidate destination
node cannot accommodate the migrating task, then the task is rejected."
This keeps migration latency bounded (pro-activeness requirement).

The k-try generalisation ("In those rare occurrences where REALTOR
directs a migration to an overloaded node, migration is aborted and the
next node in REALTOR's list is tried" — Section 3 describes exactly
this) is the A5 ablation.  A random policy serves as the
discovery-free control.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

import numpy as np

from ..node.task import Task

__all__ = ["MigrationPolicy", "OneShotPolicy", "KTryPolicy", "RandomPolicy"]


class MigrationPolicy(abc.ABC):
    """Chooses which candidates to attempt, and how many."""

    name: str = "abstract"

    @abc.abstractmethod
    def select(self, task: Task, ranked_candidates: Sequence[int]) -> List[int]:
        """Ordered list of node ids to attempt (may be empty)."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__}>"


class OneShotPolicy(MigrationPolicy):
    """The paper's policy: exactly one try, at the best candidate."""

    name = "one-shot"

    def select(self, task: Task, ranked_candidates: Sequence[int]) -> List[int]:
        return list(ranked_candidates[:1])


class KTryPolicy(MigrationPolicy):
    """Try up to ``k`` candidates in rank order (Section 3's retry loop)."""

    name = "k-try"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.name = f"{k}-try"

    def select(self, task: Task, ranked_candidates: Sequence[int]) -> List[int]:
        return list(ranked_candidates[: self.k])


class RandomPolicy(MigrationPolicy):
    """Discovery-free control: try ``k`` uniformly random other nodes.

    Quantifies the value of the discovery information itself — any
    protocol must beat this to justify its message cost.
    """

    name = "random"

    def __init__(
        self,
        all_nodes: Sequence[int],
        rng: np.random.Generator,
        k: int = 1,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        #: held, not copied: the runner passes its one system-wide node
        #: list, which grows when a node joins mid-run
        self.all_nodes = all_nodes
        self.rng = rng
        self.k = k

    def select(self, task: Task, ranked_candidates: Sequence[int]) -> List[int]:
        others = [n for n in self.all_nodes if n != task.origin]
        if not others:
            return []
        k = min(self.k, len(others))
        picks = self.rng.choice(len(others), size=k, replace=False)
        return [others[int(i)] for i in picks]


def make_policy(
    spec: str,
    *,
    all_nodes: Optional[Sequence[int]] = None,
    rng: Optional[np.random.Generator] = None,
) -> MigrationPolicy:
    """Parse a policy spec: ``"one-shot"``, ``"3-try"``, ``"random"``,
    ``"random-2"``."""
    s = spec.lower()
    if s in ("one-shot", "oneshot", "1-try"):
        return OneShotPolicy()
    if s.endswith("-try"):
        return KTryPolicy(int(s[: -len("-try")]))
    if s.startswith("random"):
        if all_nodes is None or rng is None:
            raise ValueError("random policy needs all_nodes and rng")
        k = int(s.split("-", 1)[1]) if "-" in s else 1
        return RandomPolicy(all_nodes, rng, k=k)
    raise ValueError(f"unknown policy spec: {spec!r}")
