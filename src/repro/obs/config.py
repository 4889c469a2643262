"""Configuration of the run-wide metrics registry and flight recorder.

Kept in its own tiny module (rather than :mod:`repro.obs.registry`) so
:mod:`repro.experiments.config` can embed an :class:`ObsConfig` in the
frozen :class:`~repro.experiments.config.ExperimentConfig` — and hence
in the run-store digest — without importing any sampling machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ObsConfig", "SAMPLES_TARGET"]

#: registry ticks per run: the cadence is ``horizon / SAMPLES_TARGET``, so
#: every horizon gets the same trajectory resolution at the same relative
#: cost
SAMPLES_TARGET = 48


@dataclass(frozen=True)
class ObsConfig:
    """The per-run observability layer (``ExperimentConfig.obs``).

    ``None`` on the experiment config means *off* — no registry, no
    recorder, no extra kernel events; that disabled path is
    byte-identical to a build without this layer.  An instance enables
    both with a cadence scaled to the horizon.
    """

    #: attach the sampled trajectories to ``RunResult.series`` (turn off
    #: to keep store records small while still getting flight dumps)
    record_series: bool = True

    def effective_interval(self, horizon: float) -> float:
        """The sampling cadence for a run of ``horizon`` seconds."""
        return max(float(horizon) / SAMPLES_TARGET, 1e-9)
