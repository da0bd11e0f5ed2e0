"""The reference metasearcher: STARTS §3's pipeline, written once, plainly.

Select from the content summaries, route (one query per resource when
asked), translate for each entry source, query it, merge what answered,
cut to ``MaxNumberDocuments`` — and nothing else: no cache, executor,
tracer, policy or round record.  The selector, ``ClientTranslator`` /
``translation_target`` and the merge strategies are the production
ones, each held to its own oracle elsewhere; only the orchestration is
written again here, so ``tests/metasearch/test_reference_matrix.py``
can hold every ``Metasearcher`` configuration bit-identical to it,
stage by stage.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol

from repro.metasearch.merging import (
    CalibratedMerge,
    MergeContext,
    MergedDocument,
    MergeStrategy,
)
from repro.metasearch.selection import SourceSelector
from repro.metasearch.translation import (
    ClientTranslator,
    TranslationReport,
    translation_target,
)
from repro.source.sample import SampleResults
from repro.starts.metadata import SContentSummary, SMetaAttributes
from repro.starts.query import SQuery
from repro.starts.results import SQResults

__all__ = ["Source", "Stages", "reference_search", "selection_terms"]

class Source(Protocol):
    """One source as a metasearcher knows it: what it exports."""

    source_id: str
    #: the resource that lists it; a grouped query goes once per resource
    resource_id: str
    #: its published sample results (``None`` if it publishes none)
    sample: SampleResults | None

    def metadata(self) -> SMetaAttributes: ...

    def summary(self) -> SContentSummary | None: ...

    def search(self, query: SQuery) -> SQResults: ...


@dataclass
class Stages:
    """What each stage produced, in pipeline order."""

    selected: list[str]
    #: ``(entry source, sibling sources)`` per query sent or skipped
    routed: list[tuple[str, tuple[str, ...]]]
    reports: dict[str, TranslationReport]
    #: entry source → ``"ok"``, or ``"skipped"`` if translation left nothing
    statuses: dict[str, str]
    answered: dict[str, SQResults]
    documents: list[MergedDocument]


def selection_terms(query: SQuery) -> list[str]:
    """Every lowercased word of both expressions, once, in order; terms
    under a comparison modifier (dates) say nothing topical."""
    return list(
        dict.fromkeys(
            word.lower()
            for term in query.expression_terms()
            if not term.comparison_modifier_present()
            for word in term.lstring.text.split()
        )
    )


def reference_search(
    sources: Sequence[Source],
    query: SQuery,
    selector: SourceSelector,
    merger: MergeStrategy,
    k_sources: int,
    group_by_resource: bool = False,
) -> Stages:
    if k_sources < 0:
        raise ValueError(f"k_sources must be >= 0, got {k_sources}")
    by_id = {source.source_id: source for source in sources}
    terms = selection_terms(query)

    # Select over the summaries if any source exported one, else the first k.
    summaries = {
        source_id: summary
        for source_id in sorted(by_id)
        if (summary := by_id[source_id].summary()) is not None
    }
    if summaries:
        selected = selector.select(terms, summaries, k_sources)
    else:
        selected = sorted(by_id)[:k_sources]

    # Route: the best-ranked source of each resource carries the others.
    groups: dict[str, list[str]] = {}
    for source_id in selected:
        key = by_id[source_id].resource_id if group_by_resource else source_id
        groups.setdefault(key, []).append(source_id)
    routed = [(members[0], tuple(members[1:])) for members in groups.values()]

    # Translate, then query every entry source something survived for.
    translator, reports, statuses, answered = ClientTranslator(), {}, {}, {}
    for entry, siblings in routed:
        metadata = by_id[entry].metadata()
        translated, reports[entry] = translator.translate(
            query,
            metadata,
            summary=summaries.get(entry),
            target=translation_target(metadata),
        )
        kept = (translated.filter_expression, translated.ranking_expression)
        if kept == (None, None):
            statuses[entry] = "skipped"
            continue
        if siblings:
            translated = translated.with_sources(*siblings)
        answered[entry] = by_id[entry].search(translated)
        statuses[entry] = "ok"

    # Merge over what answered, then cut.
    merging = [source_id for source_id in selected if source_id in answered]
    context = MergeContext(
        metadata={source_id: by_id[source_id].metadata() for source_id in merging},
        summaries={s: summaries[s] for s in merging if s in summaries},
        samples={
            source_id: sample
            for source_id in merging
            if isinstance(merger, CalibratedMerge)
            and (sample := by_id[source_id].sample) is not None
        },
        query_terms=tuple(terms),
    )
    documents = merger.merge(answered, context)
    if query.max_number_documents:
        documents = documents[: query.max_number_documents]
    return Stages(selected, routed, reports, statuses, answered, documents)
