"""Text rendering for traces: the whole query timeline, human first.

``MetasearchResult.explain()`` ends up here: the rows of
:func:`~repro.observability.stitch_traces` as an indented span tree
(wall-clock total and self time, attributes inline; a server-side
fragment sits under the client span that issued its request).  The
§3.3 quantities an operator watches per source — requests, retries,
hedges, wire time, cost — are its outcome line in ``explain()``.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.observability.export import stitch_traces
from repro.observability.tracing import Trace

__all__ = ["render_trace"]


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _span_lines(rows: list[dict]) -> list[str]:
    """The span rows as a tree, each under the row its ``parent_id`` names."""
    ids = {row["span_id"] for row in rows}
    children: dict[str | None, list[dict]] = {}
    for row in rows:
        parent = row["parent_id"] if row["parent_id"] in ids else None
        children.setdefault(parent, []).append(row)
    lines: list[str] = []

    def visit(row: dict, depth: int) -> None:
        below = children.get(row["span_id"], ())
        # Self time: what no child span accounts for.  Children that ran
        # side by side can sum past their parent; that reads as zero.
        self_ms = max(row["duration_ms"] - sum(c["duration_ms"] for c in below), 0.0)
        attributes = " ".join(
            f"{name}={_format_value(value)}"
            for name, value in row["attributes"].items()
        )
        # An open span (a crashed or still-running operation) shows its
        # elapsed-so-far time, explicitly marked so it never reads as final.
        mark = "+ [open]" if row["open"] else ""
        lines.append(
            f"{'  ' * depth + row['name']:<42} {row['duration_ms']:8.1f}ms{mark} "
            f"{self_ms:8.1f}ms  {attributes}".rstrip()
        )
        for child in below:
            visit(child, depth + 1)

    for root in children.get(None, ()):
        visit(root, 0)
    if lines:
        lines.insert(0, f"{'span':<42} {'total':>10} {'self':>10}")
    return lines


def render_trace(trace: Trace, fragments: Iterable[Trace] = ()) -> str:
    """The span tree, with its self-time column, as text."""
    return "\n".join(_span_lines(stitch_traces(trace, fragments))) or "(empty trace)"
