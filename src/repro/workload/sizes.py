"""Task sizes.

The paper: "We generate tasks with exponentially distributed lengths of
a mean value ... Task lengths are defined in seconds with a mean value
of 5."
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["ExponentialSizes"]


class ExponentialSizes:
    """The paper's distribution: exponential, mean 5 s by default.

    ``cap`` optionally truncates by resampling (a task larger than a whole
    queue can never be admitted anywhere and only adds rejection noise;
    the paper's parameters make this a ~2e-9 event, so capping at the
    queue capacity changes nothing measurable while protecting degenerate
    configurations).
    """

    def __init__(
        self, mean: float, rng: np.random.Generator, cap: Optional[float] = None
    ) -> None:
        if mean <= 0:
            raise ValueError("mean must be positive")
        if cap is not None and cap <= 0:
            raise ValueError("cap must be positive")
        self._mean = float(mean)
        self.rng = rng
        self.cap = cap

    def sample(self) -> float:
        """A positive task size, in seconds."""
        while True:
            x = float(self.rng.exponential(self._mean))
            if x <= 0.0:
                continue  # numpy can return exactly 0.0
            if self.cap is None or x <= self.cap:
                return x

    @property
    def mean(self) -> float:
        return self._mean
