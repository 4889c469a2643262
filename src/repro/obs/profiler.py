"""Kernel profiler — wall-time and event-count attribution.

``Simulator.run(profile=KernelProfiler())`` brackets every dispatch of
its one run loop with ``perf_counter`` — a scalar callback, or a whole
cohort handed to its batch hook and recorded under the scalar
callback's name with the cohort's event count — and feeds this
profiler, which attributes the time two ways:

* **per callback** — the scheduled function's qualified name
  (``Transport._deliver``, ``WorkQueue._complete_head``, …), the event
  categories of a run;
* **per subsystem** — the callback's module mapped onto the
  architectural layers (``queue``, ``monitor``, ``transport``,
  ``protocol``, ``migration``, ``workload``, ``kernel``, …).

Agenda management (heap pops, clock updates — everything between
callbacks) is measured as the remainder of the run's wall time and
reported as the named ``kernel`` category, so the report accounts for
~100% of the wall time spent inside :meth:`Simulator.run` (the
acceptance bar is ≥95% into named categories).

The profiled run is the run that ships: same loop, same cohort
batching, bit-identical trace, result and ``cohort_stats()``.  Overhead:
without a profiler the loop pays one ``record is None`` test per
dispatch, which does not measure (guarded by
``benchmarks/check_regression.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["KernelProfiler", "ProfileReport", "subsystem_of"]

#: module-prefix → subsystem, longest (most specific) prefix wins
_SUBSYSTEM_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.node.queue", "queue"),
    ("repro.node.monitor", "monitor"),
    ("repro.node", "node"),
    ("repro.network.transport", "transport"),
    ("repro.network", "network"),
    ("repro.protocols", "protocol"),
    ("repro.core", "protocol"),
    ("repro.migration", "migration"),
    ("repro.workload", "workload"),
    ("repro.experiments", "workload"),
    ("repro.sim", "kernel"),
)


def subsystem_of(module: str) -> str:
    """Map a callback's module name onto an architectural subsystem."""
    for prefix, name in _SUBSYSTEM_PREFIXES:
        if module.startswith(prefix):
            return name
    return "other"


@dataclass
class ProfileEntry:
    """Accumulated cost of one category (callback or subsystem)."""

    seconds: float = 0.0
    events: int = 0


@dataclass
class ProfileReport:
    """Frozen outcome of one profiled run."""

    total_seconds: float
    events_executed: int
    by_callback: Dict[str, ProfileEntry]
    by_subsystem: Dict[str, ProfileEntry]

    @property
    def accounted_seconds(self) -> float:
        return sum(e.seconds for e in self.by_subsystem.values())

    @property
    def accounted_fraction(self) -> float:
        """Fraction of run wall time attributed to named categories."""
        if self.total_seconds <= 0.0:
            return 1.0
        return min(1.0, self.accounted_seconds / self.total_seconds)

    def top_callbacks(self, n: int = 10) -> List[Tuple[str, ProfileEntry]]:
        return sorted(
            self.by_callback.items(), key=lambda kv: kv[1].seconds, reverse=True
        )[:n]

    def format(self, top: int = 10) -> str:
        """A two-table plain-text report (subsystems, then hot callbacks)."""
        from ..metrics.report import format_table

        total = self.total_seconds or 1e-12
        sub_rows = [
            [name, entry.events, entry.seconds * 1e3, 100.0 * entry.seconds / total]
            for name, entry in sorted(
                self.by_subsystem.items(), key=lambda kv: kv[1].seconds, reverse=True
            )
        ]
        lines = [
            f"profiled run: {self.total_seconds*1e3:.2f} ms wall, "
            f"{self.events_executed} events, "
            f"{self.accounted_fraction:.1%} accounted",
            format_table(["subsystem", "events", "ms", "%wall"], sub_rows),
        ]
        cb_rows = [
            [name, entry.events, entry.seconds * 1e3, 100.0 * entry.seconds / total]
            for name, entry in self.top_callbacks(top)
        ]
        if cb_rows:
            lines.append("")
            lines.append(format_table(["callback", "events", "ms", "%wall"], cb_rows))
        return "\n".join(lines)


class KernelProfiler:
    """Mutable accumulator the kernel's run loop feeds.

    One instance profiles one or more ``run`` calls (durations
    accumulate).  Thread the same instance through
    ``run_experiment(cfg, profile=...)`` to profile a whole experiment.
    """

    def __init__(self) -> None:
        self.by_callback: Dict[str, ProfileEntry] = {}
        self.by_subsystem: Dict[str, ProfileEntry] = {}
        self.total_seconds = 0.0
        self.events_executed = 0
        #: name-resolution cache — attribute lookups on the callback are
        #: the per-event overhead floor, so resolve each distinct
        #: callback once.  Bound methods are fresh objects per schedule;
        #: the underlying code object is stable, so key on its identity.
        self._name_cache: Dict[int, Tuple[str, str]] = {}

    # Kernel-facing ------------------------------------------------------

    def record(self, fn: Callable, seconds: float, events: int = 1) -> None:
        """Attribute one dispatch: ``events`` events of callback ``fn``
        (one, or a cohort's worth) took ``seconds`` (kernel hot path)."""
        func = getattr(fn, "__func__", fn)  # unwrap bound methods
        code = getattr(func, "__code__", None)
        key = id(code) if code is not None else id(func)
        names = self._name_cache.get(key)
        if names is None:
            module = getattr(func, "__module__", None) or "?"
            qualname = getattr(func, "__qualname__", None) or repr(func)
            names = (f"{qualname}", subsystem_of(module))
            self._name_cache[key] = names
        callback, subsystem = names
        entry = self.by_callback.get(callback)
        if entry is None:
            entry = self.by_callback[callback] = ProfileEntry()
        entry.seconds += seconds
        entry.events += events
        entry = self.by_subsystem.get(subsystem)
        if entry is None:
            entry = self.by_subsystem[subsystem] = ProfileEntry()
        entry.seconds += seconds
        entry.events += events
        self.events_executed += events

    def finish_run(self, wall_seconds: float) -> None:
        """Called once per profiled ``run``: fold in agenda overhead.

        The remainder between the run's wall time and the attributed
        callback time is the kernel's own bookkeeping (heap pops, clock
        updates, the timing instrumentation itself); report it under the
        named ``kernel`` subsystem so the accounting closes.
        """
        self.total_seconds += wall_seconds
        attributed = sum(e.seconds for e in self.by_subsystem.values())
        remainder = self.total_seconds - attributed
        if remainder > 0.0:
            entry = self.by_subsystem.get("kernel")
            if entry is None:
                entry = self.by_subsystem["kernel"] = ProfileEntry()
            entry.seconds += remainder

    # Reporting ----------------------------------------------------------

    def report(self) -> ProfileReport:
        return ProfileReport(
            total_seconds=self.total_seconds,
            events_executed=self.events_executed,
            by_callback={k: ProfileEntry(v.seconds, v.events)
                         for k, v in self.by_callback.items()},
            by_subsystem={k: ProfileEntry(v.seconds, v.events)
                          for k, v in self.by_subsystem.items()},
        )
