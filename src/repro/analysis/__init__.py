"""Result analysis: curve utilities (and :mod:`.ascii_chart`)."""

from .curves import auc, crossover, is_monotone, knee, normalize, peak, relative_spread

__all__ = ["auc", "crossover", "is_monotone", "knee", "normalize", "peak", "relative_spread"]
