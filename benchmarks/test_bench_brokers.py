"""A2 — broker hierarchies (ref [8]): selection cost vs. quality.

A root/leaf broker hierarchy (:mod:`repro.broker`) over the federation
must select exactly the sources a flat summary index selects, while
descending only into the leaves whose shards hold a query term — the
scalability argument of "Generalizing GlOSS ... and broker hierarchies".
Leaves descended per query are read from the ``broker_route_depth``
histogram the root already keeps.
"""

from contextlib import contextmanager

from repro.broker import build_hierarchy
from repro.experiments.metrics import mean, rank_recall_at_k
from repro.metasearch.selection import VGlossMax
from repro.metasearch.summary_index import SummaryIndex
from repro.observability.metrics import MetricsRegistry, get_registry, set_registry
from repro.starts.metadata import SContentSummary, SummaryEntryLine, SummarySection


def _hierarchy(summaries, n_leaves):
    root = build_hierarchy(n_leaves)
    for source_id, summary in summaries.items():
        root.apply_delta(source_id, summary)
    return root


@contextmanager
def _private_registry():
    previous = get_registry()
    try:
        yield set_registry(MetricsRegistry())
    finally:
        set_registry(previous)


def _mean_route_depth(registry):
    ((_, histogram),) = registry.family("broker_route_depth").children()
    return histogram.sum / histogram.count


def _synthetic_summaries(n_sources):
    """Topical summaries: source i is rich in word ``topic<i%8>``."""
    summaries = {}
    for index in range(n_sources):
        entries = (
            SummaryEntryLine(f"topic{index % 8}", 200 + index, 50),
            SummaryEntryLine("common", 20, 10),
        )
        summaries[f"source-{index:02d}"] = SContentSummary(
            num_docs=60,
            sections=(SummarySection("body-of-text", "en", entries),),
        )
    return summaries


def _scalability_rows(n_leaves=4, k=2):
    rows = []
    for n_sources in (8, 16, 32):
        summaries = _synthetic_summaries(n_sources)
        root = _hierarchy(summaries, n_leaves)
        index = SummaryIndex.from_summaries(summaries)
        with _private_registry() as registry:
            selected = root.select(VGlossMax(), ["topic3"], k)
        assert selected == VGlossMax().select(["topic3"], index, k)
        rows.append(
            f"  n={n_sources:<3} flat index holds {n_sources} sources, root "
            f"descends {_mean_route_depth(registry):.0f} of {n_leaves} leaves"
        )
    return rows


def test_bench_broker_hierarchy(benchmark, federation, write_table):
    summaries = {
        source_id: source.content_summary()
        for source_id, source in federation.sources.items()
    }
    n_leaves, k = 3, 2
    index = SummaryIndex.from_summaries(summaries)
    root = _hierarchy(summaries, n_leaves)
    selector = VGlossMax()

    flat_recalls, root_recalls = [], []
    with _private_registry() as registry:
        for query in federation.workload.queries:
            terms = list(query.terms)
            flat_selected = selector.select(terms, index, k)
            root_selected = root.select(selector, terms, k)
            # Brokered selection is exact, not merely close.
            assert root_selected == flat_selected
            flat_recalls.append(
                rank_recall_at_k(flat_selected, query.relevant_by_source, k)
            )
            root_recalls.append(
                rank_recall_at_k(root_selected, query.relevant_by_source, k)
            )

    lines = [
        f"A2: flat vs root/leaf source selection (vGlOSS-Max, k={k})",
        "",
        f"flat index:  R@{k}={mean(flat_recalls):.3f}  "
        f"sources indexed={len(summaries)}",
        f"root/leaf:   R@{k}={mean(root_recalls):.3f}  "
        f"leaves descended/query={_mean_route_depth(registry):.1f} of {n_leaves}  "
        "(selections identical)",
        "",
        f"scalability (synthetic topical sources, 4 leaves, k={k}):",
    ]
    lines.extend(_scalability_rows())
    write_table("A2_broker_hierarchy", lines)

    terms = list(federation.workload.queries[0].terms)
    benchmark(lambda: root.select(selector, terms, k))
