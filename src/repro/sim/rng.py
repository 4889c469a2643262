"""Deterministic random-number management.

Every stochastic component of a simulation (arrival process, task sizes,
placement, attack schedule, per-node jitter…) draws from its *own* named
substream so that

* runs are exactly reproducible given a root seed, and
* changing how often one component draws does not perturb the others
  (common random numbers across protocol variants — essential for the
  paired comparisons in Figures 5–8).

Substreams are derived with :class:`numpy.random.SeedSequence` spawning
keyed by a stable hash of the stream name, so ``streams("arrivals")`` is
the same generator regardless of creation order.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RandomStreams", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name.

    Uses CRC32 of the name folded into the root seed.  Stable across
    processes and Python versions (unlike ``hash``).
    """
    if root_seed < 0:
        raise ValueError("root_seed must be non-negative")
    tag = zlib.crc32(name.encode("utf-8"))
    return (root_seed * 0x9E3779B97F4A7C15 + tag) % (2**63)


class RandomStreams:
    """A factory of named, independent :class:`numpy.random.Generator` s.

    Example
    -------
    >>> rs = RandomStreams(seed=42)
    >>> arrivals = rs.stream("arrivals")
    >>> sizes = rs.stream("sizes")
    >>> float(arrivals.exponential(1.0)) != float(sizes.exponential(1.0))
    True
    >>> rs2 = RandomStreams(seed=42)
    >>> float(rs2.stream("arrivals").exponential(1.0)) == \
        float(RandomStreams(seed=42).stream("arrivals").exponential(1.0))
    True
    """

    __slots__ = ("seed", "_streams")

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls return the *same* generator object (its state
        advances as it is consumed).  Lookups are try/except on the cache
        dict — the hit path (every call but the first per name) does one
        hash probe and no branching on ``None``.
        """
        try:
            return self._streams[name]
        except KeyError:
            ss = np.random.SeedSequence(derive_seed(self.seed, name))
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
            return gen

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"

