"""Structured event tracing.

A :class:`Tracer` records ``(time, category, payload)`` tuples.  It is off
by default (zero overhead beyond one attribute check) and is used by tests
to assert protocol behaviour ("a PLEDGE followed every HELP while below
threshold") and by examples to print simulation narratives.

Streaming sinks
---------------
:meth:`Tracer.add_sink` attaches a callable that receives every record as
it is emitted.  Sinks are how traces outlive the process (see
:mod:`repro.obs.sinks` for the JSONL file sink).  The contract between the in-memory store and the
sinks is:

* the in-memory ``records`` list is capped at ``limit`` — once full,
  further records are **not stored** and are counted in ``dropped``;
* sinks keep receiving **every** record past the cap, so a file sink sees
  the complete stream while memory stays bounded;
* with no sink attached, emission past the cap skips record construction
  entirely (the drop is only counted).

:meth:`summary` reports both sides (stored, dropped, per-category counts)
and is what the JSONL sink writes as its footer via :meth:`close_sinks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Tracer", "TraceRecord"]


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence."""

    time: float
    category: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.payload[key]


class Tracer:
    """Append-only trace store with category filtering and streaming sinks.

    Parameters
    ----------
    enabled:
        When ``False`` every :meth:`emit` is a no-op.
    categories:
        When given, only these categories are recorded.
    limit:
        Hard cap on stored records (oldest kept); protects long benchmark
        runs from unbounded memory growth if someone leaves tracing on.
        Sinks stream past the cap — see the module docstring.
    """

    def __init__(
        self,
        enabled: bool = True,
        categories: Optional[set] = None,
        limit: int = 1_000_000,
    ) -> None:
        self.enabled = enabled
        self.categories = set(categories) if categories else None
        self.limit = int(limit)
        self.records: List[TraceRecord] = []
        self._sinks: List[Callable[[TraceRecord], None]] = []
        self.dropped = 0
        #: per-category index over *stored* records; powers O(1)
        #: ``categories_seen`` and index-scan ``select``/``count``
        self._index: Dict[str, List[TraceRecord]] = {}

    def emit(self, time: float, category: str, **payload: Any) -> None:
        """Record an occurrence (cheap no-op when disabled/filtered)."""
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        if len(self.records) >= self.limit:
            # Full: count the drop and skip the record construction
            # entirely unless a sink still wants to stream it.
            self.dropped += 1
            if not self._sinks:
                return
            rec = TraceRecord(time, category, payload)
        else:
            rec = TraceRecord(time, category, payload)
            self.records.append(rec)
            bucket = self._index.get(category)
            if bucket is None:
                self._index[category] = [rec]
            else:
                bucket.append(rec)
        for sink in self._sinks:
            sink(rec)

    # Sink management ---------------------------------------------------

    def add_sink(self, fn: Callable[[TraceRecord], None]) -> None:
        """Stream records to ``fn`` as they are emitted (e.g. ``print``).

        ``fn`` may be a plain callable or a sink object from
        :mod:`repro.obs.sinks`; objects exposing ``close`` participate in
        :meth:`close_sinks`.
        """
        self._sinks.append(fn)

    def remove_sink(self, fn: Callable[[TraceRecord], None]) -> None:
        """Detach a previously added sink (no error if absent)."""
        try:
            self._sinks.remove(fn)
        except ValueError:
            pass

    def close_sinks(self) -> None:
        """Flush and close every sink that supports it.

        Sinks with a ``close`` method receive :meth:`summary` so file
        sinks can write a trailer accounting for records the in-memory
        store dropped.  Idempotent per sink (sinks guard their own state).
        """
        summary = self.summary()
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close(summary)

    # Query helpers -----------------------------------------------------

    def select(self, category: str, **match: Any) -> List[TraceRecord]:
        """Records of ``category`` whose payload matches all ``match`` kwargs."""
        bucket = self._index.get(category)
        if not bucket:
            return []
        if not match:
            return list(bucket)
        return [
            rec
            for rec in bucket
            if all(rec.payload.get(k) == v for k, v in match.items())
        ]

    def count(self, category: str, **match: Any) -> int:
        if not match:
            bucket = self._index.get(category)
            return len(bucket) if bucket else 0
        return len(self.select(category, **match))

    def categories_seen(self) -> Dict[str, int]:
        """Histogram of categories stored so far (O(#categories))."""
        return {cat: len(bucket) for cat, bucket in self._index.items() if bucket}

    def summary(self) -> Dict[str, Any]:
        """Stored/dropped accounting for footers and run reports."""
        return {
            "recorded": len(self.records),
            "dropped": self.dropped,
            "limit": self.limit,
            "categories": self.categories_seen(),
        }

    def __len__(self) -> int:
        return len(self.records)
