"""Per-layer metrics from the traced passes' spans.

For every operation the pass with the smallest root duration is kept
(the same minimum-over-passes rule the end-to-end latencies use), and
within it each layer's value is the sum of its spans' self times, in
the runner's calibrated milliseconds (waiting is never scaled).  A
``*_ms`` metric is the median of those per-operation sums over the
operations in which the layer ran at all — on ``zipf_cached`` the
translation, transport, source, engine and merging layers only run on
misses, so their medians describe the miss path.
"""

from __future__ import annotations

import statistics

from benchmarks.suite.spans import Span, self_times

__all__ = ["LAYER_SPANS", "ROOT_SPANS", "layer_metrics", "discovery_metrics"]

ROOT_SPANS = ("client.search", "client.search_stream")
#: Time in these spans is waiting, not CPU: machine speed does not scale it.
WAIT_SPANS = ("transport.wait",)

#: metric -> the span names whose self times it sums.
LAYER_SPANS = {
    "selection.select_ms": ("selection.select",),
    "selection.summaries_ms": ("selection.summaries",),
    "cache.key_ms": ("cache.key",),
    "cache.lookup_ms": ("cache.lookup",),
    "cache.store_ms": ("cache.store",),
    "translation.translate_ms": ("translation.translate",),
    "federation.dispatch_self_ms": (
        "federation.dispatch",
        "federation.dispatch_stream",
    ),
    "transport.client_codec_ms": ("transport.client",),
    "transport.server_codec_ms": ("transport.server",),
    "source.self_ms": ("source.resource", "source.search"),
    "engine.search_ms": ("engine.search",),
    "merging.merge_ms": ("merging.merge", "merging.feed", "merging.merged"),
    "client.self_ms": ROOT_SPANS,
}


class _Operation:
    """One operation's span tree in one pass, folded by span name."""

    def __init__(self) -> None:
        self.root_s = 0.0
        self.self_s: dict[str, float] = {}
        self.count: dict[str, int] = {}
        self.attrs: dict[str, float] = {}

    def add(self, span: Span, self_s: float) -> None:
        if span.parent is None and span.name in ROOT_SPANS:
            self.root_s = sum(end - start for start, end in span.active())
        self.self_s[span.name] = self.self_s.get(span.name, 0.0) + self_s
        self.count[span.name] = self.count.get(span.name, 0) + 1
        for key, value in span.attrs.items():
            full = f"{span.name}:{key}"
            self.attrs[full] = self.attrs.get(full, 0.0) + value


def _fold(spans: list[Span], slowdowns: list[float]) -> dict[int, _Operation]:
    own = self_times(spans)
    operations: dict[int, _Operation] = {}
    for span in spans:
        if span.op < 0:
            continue
        scale = 1.0 if span.name in WAIT_SPANS else slowdowns[span.op]
        operations.setdefault(span.op, _Operation()).add(span, own[span.id] / scale)
    return operations


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    passes: list[list[Span]], slowdowns: list[list[float]]
) -> dict[str, float]:
    """Layer metrics over each operation's best traced pass.

    ``slowdowns`` holds, per pass, each operation's machine-speed factor
    (see :mod:`benchmarks.suite.canary`).
    """
    folded = [_fold(spans, factors) for spans, factors in zip(passes, slowdowns)]
    best: list[_Operation] = []
    for op in sorted(folded[0]):
        candidates = [fold[op] for fold in folded if op in fold]
        best.append(min(candidates, key=lambda operation: operation.root_s))

    metrics: dict[str, float] = {}
    for metric, names in LAYER_SPANS.items():
        per_op = []
        for operation in best:
            if any(name in operation.self_s for name in names):
                seconds = sum(operation.self_s.get(name, 0.0) for name in names)
                per_op.append(seconds * 1000.0)
        metrics[metric] = _median(per_op)

    n_ops = len(best)

    def total(key: str) -> float:
        return sum(operation.attrs.get(key, 0.0) for operation in best)

    def count(name: str) -> int:
        return sum(operation.count.get(name, 0) for operation in best)

    lookups = count("cache.lookup")
    wire_requests = count("transport.server")
    dispatched = total("federation.dispatch:requests") + total(
        "federation.dispatch_stream:requests"
    )
    translations = count("translation.translate")
    metrics.update(
        {
            "cache.hit_fraction": _ratio(total("cache.lookup:hit"), lookups),
            "cache.evictions": total("cache.store:evictions"),
            "translation.lossless_fraction": _ratio(
                total("translation.translate:lossless"), translations
            ),
            "federation.attempts_per_request": _ratio(
                count("transport.client"), dispatched
            ),
            "transport.wire_bytes_per_query": _ratio(
                total("transport.server:bytes"), n_ops
            ),
            "transport.requests_per_query": _ratio(wire_requests, n_ops),
            "transport.wait_ms_per_query": _ratio(
                sum(op.self_s.get("transport.wait", 0.0) for op in best) * 1000.0,
                n_ops,
            ),
            "source.docs_returned_per_query": _ratio(
                total("source.search:docs"), n_ops
            ),
            "merging.docs_merged_per_query": _ratio(
                total("merging.merge:docs"), n_ops
            ),
        }
    )
    return metrics


def discovery_metrics(spans: list[Span], n_sources: int) -> dict[str, float]:
    """Harvest cost per source and the share spent fetching samples."""
    refresh_s = sum(
        span.end - span.start for span in spans if span.name == "client.refresh"
    )
    sample_s = sum(
        span.end - span.start
        for span in spans
        if span.name == "discovery.fetch_sample"
    )
    return {
        "discovery.harvest_ms_per_source": _ratio(refresh_s * 1000.0, n_sources),
        "discovery.sample_fetch_share": _ratio(sample_s, refresh_s),
    }
