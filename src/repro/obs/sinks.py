"""Streaming trace sinks.

A sink is a callable attached via :meth:`repro.sim.trace.Tracer.add_sink`
that receives every :class:`~repro.sim.trace.TraceRecord` as it is
emitted — including records past the tracer's in-memory cap, so a file
sink holds the complete stream while process memory stays bounded.

Serialisation is deterministic: records become one JSON object per line
with sorted keys and no timestamps other than simulated time, so a seeded
run writes a byte-identical trace file on every invocation (pinned by
``tests/obs/test_sinks.py``).

Line layout::

    {"c": "<category>", "p": {<payload>}, "t": <sim time>}

Files start with a header line (``{"format": "repro-trace/1"}``) and end,
when closed through :meth:`Tracer.close_sinks`, with a footer carrying
the tracer's :meth:`~repro.sim.trace.Tracer.summary` — recorded/dropped
counts and the per-category histogram.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..sim.trace import TraceRecord

__all__ = ["JsonLinesSink", "record_to_json", "TRACE_FORMAT"]

TRACE_FORMAT = "repro-trace/1"


def record_to_json(rec: TraceRecord) -> str:
    """One deterministic NDJSON line for a trace record."""
    return json.dumps(
        {"c": rec.category, "p": rec.payload, "t": rec.time},
        sort_keys=True,
        default=str,
        separators=(",", ":"),
    )


class JsonLinesSink:
    """Buffered JSONL file sink with optional size-based rotation.

    Parameters
    ----------
    path:
        Destination file.  The active file is always ``path``; on
        rotation it is renamed to ``path.1``, ``path.2``, … and a fresh
        ``path`` is opened.
    buffer_records:
        Lines held in memory between writes (amortises syscalls on
        flood-heavy runs).
    rotate_bytes:
        When given, rotate once the active file exceeds this size
        (checked at flush granularity).  ``None`` disables rotation —
        required for byte-stable golden traces.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        buffer_records: int = 256,
        rotate_bytes: Optional[int] = None,
    ) -> None:
        if buffer_records < 1:
            raise ValueError("buffer_records must be >= 1")
        if rotate_bytes is not None and rotate_bytes <= 0:
            raise ValueError("rotate_bytes must be positive")
        self.path = Path(path)
        self.buffer_records = int(buffer_records)
        self.rotate_bytes = rotate_bytes
        self.records_written = 0
        self.rotations = 0
        self._buffer: List[str] = []
        self._bytes_written = 0
        self._closed = False
        self._fh = self.path.open("w", encoding="utf-8")
        self._write_line(json.dumps({"format": TRACE_FORMAT}, sort_keys=True))

    # Tracer-facing ------------------------------------------------------

    def __call__(self, rec: TraceRecord) -> None:
        if self._closed:
            return
        self._buffer.append(record_to_json(rec))
        self.records_written += 1
        if len(self._buffer) >= self.buffer_records:
            self.flush()

    def flush(self) -> None:
        """Drain the line buffer to disk; rotate if over the size cap."""
        if self._closed:
            return
        if self._buffer:
            chunk = "\n".join(self._buffer) + "\n"
            self._fh.write(chunk)
            self._bytes_written += len(chunk)
            self._buffer.clear()
        self._fh.flush()
        if self.rotate_bytes is not None and self._bytes_written >= self.rotate_bytes:
            self._rotate()

    def close(self, summary: Optional[Dict[str, Any]] = None) -> None:
        """Flush, append the footer (tracer summary) and close.  Idempotent."""
        if self._closed:
            return
        self.flush()
        footer: Dict[str, Any] = {"format": TRACE_FORMAT, "footer": True}
        if summary is not None:
            footer["summary"] = summary
        footer["records_written"] = self.records_written
        self._write_line(json.dumps(footer, sort_keys=True, default=str))
        self._fh.close()
        self._closed = True

    # Internals ----------------------------------------------------------

    def _write_line(self, line: str) -> None:
        self._fh.write(line + "\n")
        self._bytes_written += len(line) + 1

    def _rotate(self) -> None:
        self._fh.close()
        self.rotations += 1
        self.path.rename(self.path.with_name(f"{self.path.name}.{self.rotations}"))
        self._fh = self.path.open("w", encoding="utf-8")
        self._bytes_written = 0
        self._write_line(json.dumps({"format": TRACE_FORMAT}, sort_keys=True))

    def __enter__(self) -> "JsonLinesSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

