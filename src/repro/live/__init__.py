"""The live asyncio runtime: the paper's protocols off the simulator.

This package is the other half of the runtime seam
(:mod:`repro.runtime.api`): a wall-clock scheduler
(:class:`~repro.live.scheduler.LiveScheduler`), a real message transport
(:class:`~repro.live.transport.LiveTransport`, deliveries on the
scheduler's agenda or over loopback UDP sockets) and
:class:`~repro.live.runtime.LiveRuntime`, which hands those two to the simulator's own system assembly
(:func:`repro.experiments.runner.assemble`) and adds the live-only
parts: settlement latency, drain and report.
:class:`~repro.live.runtime.LiveConfig` is the experiment config plus
five live-only fields.

Run it from the command line::

    python -m repro.live --nodes 25 --rate 200 --duration 10

See ``docs/live.md`` for the seam architecture and the backend matrix.
"""

from .runtime import LiveConfig, LiveRuntime, run_live
from .scheduler import LiveScheduler
from .transport import BACKENDS, LiveTransport

__all__ = [
    "BACKENDS",
    "LiveConfig",
    "LiveRuntime",
    "LiveScheduler",
    "LiveTransport",
    "run_live",
]
