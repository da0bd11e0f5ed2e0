"""Text rendering for traces: the whole query timeline, human first.

``MetasearchResult.explain()`` ends up here: the rows of
:func:`~repro.observability.stitch_traces` as an indented span tree
(wall-clock total and self time, attributes inline; a server-side
fragment sits under the client span that issued its request) followed
by the per-source counter table — retries, failures, timeouts,
simulated latency, backoff waits and monetary cost, the §3.3 quantities
a metasearch operator actually watches — and the cache tallies.
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


def _counter_lines(rows: list[dict]) -> list[str]:
    """The per-source counter table (empty if there was no traffic)."""
    if not rows:
        return []
    lines = [
        f"{'source':<16} {'reqs':>5} {'retry':>5} {'fail':>5} {'tmout':>5} "
        f"{'hedge':>5} {'latency':>10} {'backoff':>9} {'cost':>7}"
    ]
    for row in sorted(rows, key=lambda row: row["source_id"]):
        lines.append(
            f"{row['source_id']:<16} {row['requests']:>5} {row['retries']:>5} "
            f"{row['failures']:>5} {row['timeouts']:>5} {row['hedges']:>5} "
            f"{row['latency_ms']:>8.1f}ms {row['backoff_ms']:>7.1f}ms "
            f"{row['cost']:>7.2f}"
        )
    return lines


def _cache_lines(rows: list[dict]) -> list[str]:
    """The cache-tier summary (empty when caching never ran)."""
    lines = []
    for row in rows:
        lookups = row["hits"] + row["stale_hits"] + row["misses"]
        rate = row["hits"] / lookups if lookups else 0.0
        lines += [
            f"hits={row['hits']} stale_hits={row['stale_hits']} "
            f"misses={row['misses']} hit_rate={rate:.2f}",
            f"stores={row['stores']} evictions={row['evictions']} "
            f"negative_skips={row['negative_skips']} "
            f"cost_saved={row['cost_saved']:.2f}",
        ]
    return lines


def render_trace(trace: Trace, fragments: Iterable[Trace] = ()) -> str:
    """The span tree, the counter table and the cache tallies, as text."""
    by_kind: dict[str, list[dict]] = {}
    for row in stitch_traces(trace, fragments):
        by_kind.setdefault(row["kind"], []).append(row)
    sections = [
        ("", _span_lines(by_kind.get("span", []))),
        (
            "per-source counters (simulated wire time and cost):",
            _counter_lines(by_kind.get("source_counters", [])),
        ),
        ("cache counters:", _cache_lines(by_kind.get("cache_counters", []))),
    ]
    blocks = [
        "\n".join(([title] if title else []) + lines)
        for title, lines in sections
        if lines
    ]
    return "\n\n".join(blocks) or "(empty trace)"
