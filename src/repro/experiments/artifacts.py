"""The committed tables of EXPERIMENTS.md, one builder per artifact.

``ARTIFACTS`` maps an experiment id (DESIGN.md §3) to the parameterless
builder of ``benchmarks/results/<id>_*.txt``: ``python -m repro
experiment ID`` prints the table, and ``tests/experiments/test_artifacts.py``
requires the regenerated text to equal the committed file and the rows
to keep the shape EXPERIMENTS.md claims.  A builder returns ``(lines,
rows)`` — the table's lines and what they were rendered from.  Sizes and
seeds are part of a table's definition, so nothing here takes a parameter.
"""

from __future__ import annotations

import re
from dataclasses import replace
from functools import cache

from repro.broker import build_hierarchy
from repro.corpus import source1_documents, source2_documents, ullman_dood_document
from repro.corpus.generator import CollectionSpec, generate_collection
from repro.experiments.endtoend import run_end_to_end_experiment
from repro.experiments.federation import Federation, FederationSpec, build_federation
from repro.experiments.merging import run_merging_experiment
from repro.experiments.metrics import mean, rank_recall_at_k
from repro.experiments.selection import run_selection_experiment
from repro.experiments.summaries import run_summary_size_experiment
from repro.experiments.translation import (
    FEATURE_QUERIES,
    least_common_denominator,
    run_translation_experiment,
)
from repro.metasearch.merging import (
    CalibratedMerge,
    NormalizedScoreMerge,
    RawScoreMerge,
    RoundRobinMerge,
    TermFrequencyMerge,
    TfIdfRecomputeMerge,
)
from repro.metasearch.rewriting import PredicateRewriter
from repro.metasearch.selection import VGlossMax
from repro.metasearch.summary_index import SummaryIndex
from repro.metasearch.translation import ClientTranslator
from repro.observability.metrics import MetricsRegistry, get_registry, set_registry
from repro.resource import Resource
from repro.source import SourceCapabilities, StartsSource
from repro.starts import BASIC1, SQuery, parse_expression
from repro.starts.metadata import (
    MBASIC1_ATTRIBUTES,
    SContentSummary,
    SummaryEntryLine,
    SummarySection,
)
from repro.transport import SimulatedInternet, StartsClient, publish_resource

__all__ = ["ARTIFACTS", "standard_federation"]


@cache
def standard_federation() -> Federation:
    """EXPERIMENTS.md's "standard federation" (6 sources x 50 docs, 30 queries),
    built once per process: no table depends on what another ran on it."""
    return build_federation(
        FederationSpec(n_sources=6, docs_per_source=50, n_queries=30, seed=1)
    )


def _source_columns(source_ids) -> str:
    return " ".join(f"{source_id[-2:]:>3}" for source_id in source_ids)


def _marks(flags) -> str:
    return " ".join("  +" if flag else "  -" for flag in flags)


def _titled(title: str, rows):
    return [title, "", *(row.row() for row in rows)], rows


def figure1_architecture():
    internet = SimulatedInternet(seed=1)
    source1 = StartsSource("Source-1", source1_documents())
    # Source-2 also carries the Ullman document so duplicate
    # elimination has something to eliminate.
    source2 = StartsSource("Source-2", [ullman_dood_document(), *source2_documents()])
    resource = Resource("Stanford", [source1, source2])
    publish_resource(internet, resource, "http://stanford.example.org")
    expression = parse_expression(
        'list((body-of-text "distributed") (body-of-text "databases"))'
    )
    query = SQuery(ranking_expression=expression).with_sources("Source-2")
    results = StartsClient(internet).query(source1.base_url + "/query", query)
    lines = ["Figure 1: query at Source-1, Sources=[Source-2]", ""]
    lines.extend(
        f"score={doc.raw_score:.4f} sources={','.join(doc.sources):<19} {doc.linkage}"
        for doc in results.documents
    )
    return lines, results


def basic1_fields():
    metadata = {s: src.metadata() for s, src in standard_federation().sources.items()}
    source_ids = sorted(metadata)
    lines = ["Basic-1 field support (+ = supported)", ""]
    lines.append(f"{'field':<26} req " + _source_columns(source_ids))
    for name, spec in BASIC1.fields.items():
        marks = _marks(metadata[s].supports_field(name) for s in source_ids)
        lines.append(f"{name:<26} {'yes' if spec.required else 'no '} {marks}")
    return lines, metadata


def basic1_modifiers():
    metadata = {s: src.metadata() for s, src in standard_federation().sources.items()}
    source_ids = sorted(metadata)
    lines = ["Basic-1 modifier support (+ = supported)", ""]
    lines.append(f"{'modifier':<18} " + _source_columns(source_ids))
    for name in BASIC1.modifiers:
        marks = _marks(metadata[s].supports_modifier(name) for s in source_ids)
        lines.append(f"{name:<18} {marks}")
    return lines, metadata


def mbasic1_metadata():
    federation = standard_federation()
    source_ids = federation.source_ids()
    wire = {s: federation.sources[s].metadata().to_soif() for s in source_ids}
    lines = ["MBasic-1 attribute export (+ = present on the wire)", ""]
    lines.append(f"{'attribute':<26} req " + _source_columns(source_ids))
    for spec in MBASIC1_ATTRIBUTES:
        # MBasic-1's own attributes travel CamelCase, the ones it takes
        # from GILS (and ContentSummaryLinkage) kebab-case (Example 10).
        kebab = re.sub(r"(?<!^)(?=[A-Z])", "-", spec.name).lower()
        marks = _marks(spec.name in wire[s] or kebab in wire[s] for s in source_ids)
        lines.append(f"{spec.name:<26} {'yes' if spec.required else 'no '} {marks}")
    return lines, wire


def selection_curve():
    federation = build_federation(
        FederationSpec(n_sources=10, docs_per_source=40, n_queries=40, seed=9)
    )
    ks = tuple(range(1, 11))
    results = run_selection_experiment(federation, ks=ks)
    by_name = {row.selector: row for row in results}
    names = ["bGlOSS", "vGlOSS-Max", "CORI", "by-size", "random"]
    lines = [
        "E1b: selection recall vs k (10 sources, 40 queries)",
        "",
        "k    " + " ".join(f"{name:>11}" for name in names),
    ]
    for k in ks:
        cells = " ".join(f"{by_name[name].recall_at_k[k]:>11.3f}" for name in names)
        lines.append(f"{k:<4} {cells}")
    return lines, by_name


def _merging_table(title: str, strategies=None, **options):
    """E2 and its variants: merged-rank quality over the first 20 queries."""
    rows = run_merging_experiment(
        standard_federation(), strategies, n_queries=20, **options
    )
    return _titled(title, rows)


def query_translation():
    federation = standard_federation()
    source_ids = federation.source_ids()
    cells = run_translation_experiment(federation)
    by_cell = {(cell.feature, cell.source_id): cell for cell in cells}
    lines = [
        "E3: per-feature translation across vendors",
        "    (+ lossless, o degraded-but-survived, - dropped entirely)",
        "",
        f"{'feature':<18} " + _source_columns(source_ids),
    ]
    for feature in FEATURE_QUERIES:
        marks = " ".join(
            "  +" if cell.lossless else "  o" if cell.survived else "  -"
            for cell in (by_cell[feature, source_id] for source_id in source_ids)
        )
        lines.append(f"{feature:<18} {marks}")
    lcd = least_common_denominator(cells)
    predicted = sum(1 for cell in cells if cell.prediction_matches_actual)
    lines += [
        "",
        f"least common denominator ({len(lcd)}/{len(FEATURE_QUERIES)}): "
        f"{', '.join(lcd)}",
        f"client prediction == source actual query: {predicted}/{len(cells)}",
    ]
    return lines, cells


def scale():
    federation = build_federation(
        FederationSpec(n_sources=20, docs_per_source=40, n_queries=15, seed=13)
    )
    rows_by_k = {  # k -> (starts, baseline)
        k: run_end_to_end_experiment(federation, n_queries=10, k_sources=k)
        for k in (3, 5, 8)
    }
    lines = ["E7: 20-source federation, 10 queries, k sweep", ""]
    lines += [f"k={k}: {starts.row()}" for k, (starts, _) in rows_by_k.items()]
    lines.append(f"       {rows_by_k[3][1].row()}")
    return lines, rows_by_k


def summary_granularity():
    lines = ["A1a: selection recall vs summary truncation (vGlOSS-Max)", ""]
    truncations = {"full": None, "top-100": 100, "top-25": 25, "top-5": 5}
    recalls = {}
    for label, max_words in truncations.items():
        (row,) = run_selection_experiment(
            standard_federation(),
            selectors=[VGlossMax()],
            ks=(1, 3),
            max_words_per_section=max_words,
        )
        recall = recalls[label] = row.recall_at_k
        lines.append(f"{label:<8} R@1={recall[1]:.3f} R@3={recall[3]:.3f}")
    return lines, recalls


class _NoDeclaredRange(NormalizedScoreMerge):
    """Range normalization with the exported ScoreRange hidden, which
    forces the observed-maximum fallback."""

    name = "range-normalized(no-range)"

    def prepare(self, source_id, results, context):
        unbounded = replace(
            context.metadata[source_id], score_range=(0.0, float("inf"))
        )
        return super().prepare(
            source_id, results, replace(context, metadata={source_id: unbounded})
        )


def _flat_and_brokered(summaries, n_leaves, queries, k):
    """Select for every query over a flat index and over a root/leaf
    hierarchy of the same summaries: ``(flat picks, brokered picks, mean
    leaves descended)``, the last read from the ``broker_route_depth``
    histogram the root keeps."""
    selector = VGlossMax()
    index = SummaryIndex.from_summaries(summaries)
    root = build_hierarchy(n_leaves)
    for source_id, summary in summaries.items():
        root.apply_delta(source_id, summary)
    flat = [selector.select(terms, index, k) for terms in queries]
    previous = get_registry()
    registry = set_registry(MetricsRegistry())
    try:
        brokered = [root.select(selector, terms, k) for terms in queries]
    finally:
        set_registry(previous)
    ((_, histogram),) = registry.family("broker_route_depth").children()
    return flat, brokered, histogram.sum / histogram.count


def _topical_summary(index: int) -> SContentSummary:
    """Source ``index`` is rich in word ``topic<index % 8>``."""
    entries = (
        SummaryEntryLine(f"topic{index % 8}", 200 + index, 50),
        SummaryEntryLine("common", 20, 10),
    )
    section = SummarySection("body-of-text", "en", entries)
    return SContentSummary(num_docs=60, sections=(section,))


def broker_hierarchy():
    federation = standard_federation()
    queries = federation.workload.queries
    n_leaves, k = 3, 2
    summaries = {s: src.content_summary() for s, src in federation.sources.items()}
    terms = [list(query.terms) for query in queries]
    flat, brokered, depth = _flat_and_brokered(summaries, n_leaves, terms, k)

    def recall(picks) -> float:
        return mean(
            rank_recall_at_k(selected, query.relevant_by_source, k)
            for selected, query in zip(picks, queries)
        )

    lines = [
        f"A2: flat vs root/leaf source selection (vGlOSS-Max, k={k})",
        "",
        f"flat index:  R@{k}={recall(flat):.3f}  sources indexed={len(summaries)}",
        f"root/leaf:   R@{k}={recall(brokered):.3f}  "
        f"leaves descended/query={depth:.1f} of {n_leaves}  "
        "(selections identical)",
        "",
        f"scalability (synthetic topical sources, 4 leaves, k={k}):",
    ]
    comparisons = [(flat, brokered)]
    for n_sources in (8, 16, 32):
        topical = {f"source-{i:02d}": _topical_summary(i) for i in range(n_sources)}
        flat, brokered, depth = _flat_and_brokered(topical, 4, [["topic3"]], k)
        comparisons.append((flat, brokered))
        lines.append(
            f"  n={n_sources:<3} flat index holds {n_sources} sources, root "
            f"descends {depth:.0f} of 4 leaves"
        )
    return lines, comparisons


def predicate_rewriting():
    documents = generate_collection(
        CollectionSpec(name="Poor", topics={"databases": 1.0}, size=80, seed=17)
    )
    no_expansion = SourceCapabilities.full_basic1().without_modifiers(
        "stem", "phonetic", "right-truncation", "left-truncation"
    )
    poor = StartsSource("Poor", documents, capabilities=no_expansion)
    rich = StartsSource("Rich", documents)  # full Basic-1: the reference
    metadata, summary = poor.metadata(), poor.content_summary()
    translators = (ClientTranslator(), ClientTranslator(rewriter=PredicateRewriter()))
    fractions = ([], [])  # modifier dropped, predicate rewritten
    for word in ("databases", "queries", "indexes", "transactions", "systems"):
        query = SQuery(
            filter_expression=parse_expression(f'(body-of-text stem "{word}")')
        )
        reference = {d.linkage for d in rich.search(query).documents}
        for translator, fraction in zip(translators, fractions):
            translated, _ = translator.translate(query, metadata, summary=summary)
            got = {d.linkage for d in poor.search(translated).documents}
            fraction.append(len(got & reference) / len(reference))
    dropped, rewritten = (mean(fraction) for fraction in fractions)
    lines = [
        "A3: stem-query recall at a no-stem source (vs full-Basic-1 reference)",
        "",
        f"modifier dropped (STARTS default): {dropped:.3f}",
        f"predicate rewritten over summary:  {rewritten:.3f}",
    ]
    return lines, (dropped, rewritten)


ARTIFACTS = {
    "F1": figure1_architecture,
    "T1": basic1_fields,
    "T2": basic1_modifiers,
    "T3": mbasic1_metadata,
    "E1": lambda: _titled(
        "E1: mean selection recall at k sources (30 queries)",
        run_selection_experiment(standard_federation()),
    ),
    "E1b": selection_curve,
    "E2": lambda: _merging_table(
        "E2: merged-rank quality over 20 queries, all 6 sources"
    ),
    "E3": query_translation,
    "E4": lambda: _titled(
        "E4: collection vs content-summary size (SOIF bytes)",
        run_summary_size_experiment(sizes=(25, 50, 100, 200)),
    ),
    "E5": lambda: _titled(
        "E5: STARTS pipeline vs pre-STARTS baseline (15 queries)",
        run_end_to_end_experiment(standard_federation(), n_queries=15, k_sources=3),
    ),
    "E6": lambda: _merging_table(
        "E6: merging WITHOUT TermStats (sources lost their statistics)",
        [RawScoreMerge(), NormalizedScoreMerge(), RoundRobinMerge(), CalibratedMerge()],
        withhold_term_stats=True,
    ),
    "E7": scale,
    "A1a": summary_granularity,
    "A1b": lambda: _merging_table(
        "A1b: document frequencies in statistics-based re-ranking",
        [TermFrequencyMerge(), TfIdfRecomputeMerge()],
    ),
    "A1c": lambda: _merging_table(
        "A1c: ScoreRange metadata on/off for range normalization",
        [NormalizedScoreMerge(), _NoDeclaredRange()],
    ),
    "A2": broker_hierarchy,
    "A3": predicate_rewriting,
}
