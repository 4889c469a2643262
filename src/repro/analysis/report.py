"""Plain-text result tables.

The benchmark harness prints the same rows the paper's figures plot:
one row per arrival rate, one column per protocol.  No plotting
dependency — the tables are the deliverable, and EXPERIMENTS.md embeds
them verbatim.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence

from ..metrics.collector import RunResult

__all__ = ["describe_result", "figure_table", "format_table"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    float_fmt: str = "{:.4g}",
    min_width: int = 8,
) -> str:
    """Render an aligned plain-text table."""

    def render(cell: object) -> str:
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    rendered = [[render(c) for c in row] for row in rows]
    widths = [
        max(min_width, len(h), *(len(r[i]) for r in rendered)) if rendered else max(min_width, len(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    header = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def figure_table(
    results: Mapping[str, Mapping[float, RunResult]],
    metric: Callable[[RunResult], float],
    *,
    x_label: str = "lambda",
    float_fmt: str = "{:.4g}",
) -> str:
    """Tabulate a figure: rows = x values, columns = protocol curves.

    ``results[protocol][x] -> RunResult``; ``metric`` extracts the y value.
    """
    protocols = list(results.keys())
    xs = sorted({x for series in results.values() for x in series})
    rows: List[List[object]] = []
    for x in xs:
        row: List[object] = [x]
        for proto in protocols:
            rr = results[proto].get(x)
            row.append(metric(rr) if rr is not None else "-")
        rows.append(row)
    return format_table([x_label, *protocols], rows, float_fmt=float_fmt)


def describe_result(result: RunResult, label: Optional[str] = None) -> str:
    """One-paragraph human summary of a run (used by examples)."""
    name = label or str(result.params.get("protocol", "run"))
    lines = [
        f"{name}: horizon={result.horizon:g}s generated={result.generated}",
        f"  admission probability : {result.admission_probability:.4f}",
        f"  migration rate        : {result.migration_rate:.4f}",
        f"  messages (weighted)   : {result.messages_total:,.0f}",
        f"  messages/admitted     : {result.messages_per_admitted:.1f}",
        f"  mean response time    : {result.response_time_mean:.2f}s",
    ]
    if result.messages_by_kind:
        parts = ", ".join(
            f"{k}={v:,.0f}" for k, v in sorted(result.messages_by_kind.items())
        )
        lines.append(f"  by kind               : {parts}")
    return "\n".join(lines)
