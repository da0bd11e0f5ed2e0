"""The source's answer assembly as it stood before the per-response hoisting.

``StartsSource._to_document`` (the answer-field names re-canonicalised
and a fresh ``STerm`` built per hit) and ``Document.size_kbytes`` (join
and UTF-8-encode the whole text to count it) are moved here verbatim
from ``repro/source/source.py`` and ``repro/engine/documents.py``;
``oracle_search`` is ``StartsSource.search`` as it was, calling them.
``tests/source/test_answer_assembly.py`` holds the production path to
these, hit for hit.
"""

from __future__ import annotations

from repro.engine import fields as F
from repro.engine.documents import Document
from repro.engine.search import EngineHit
from repro.source.execution import QueryTranslator
from repro.source.source import StartsSource
from repro.starts.ast import STerm
from repro.starts.attributes import FieldRef, canonical_field_name
from repro.starts.lstring import LString
from repro.starts.query import SQuery
from repro.starts.results import SQRDocument, SQResults, TermStats

__all__ = ["oracle_size_kbytes", "oracle_to_document", "oracle_search", "OracleSource"]


def oracle_size_kbytes(document: Document) -> int:
    """Document size in whole KBytes, at least 1 (``DocSize``)."""
    full_text = " ".join(value for _, value in document.text_fields())
    nbytes = len(full_text.encode("utf-8"))
    return max(1, round(nbytes / 1024)) if nbytes else 1


def oracle_to_document(source: StartsSource, hit: EngineHit, query: SQuery) -> SQRDocument:
    document = source.engine.store[hit.doc_id]
    answer_fields = {}
    for name in query.answer_fields:
        canonical = canonical_field_name(name)
        if canonical == F.LINKAGE:
            continue  # always present on SQRDocument
        value = document.get(canonical)
        if value:
            answer_fields[canonical] = value
    term_stats: tuple[TermStats, ...] = ()
    if source.export_term_stats:
        term_stats = tuple(
            TermStats(
                STerm(LString(stats.text), FieldRef(stats.field)),
                stats.term_frequency,
                stats.term_weight,
                stats.document_frequency,
            )
            for stats in hit.term_stats
        )
    return SQRDocument(
        linkage=document.linkage,
        raw_score=hit.score,
        sources=(source.source_id,),
        fields=answer_fields,
        term_stats=term_stats,
        doc_size=oracle_size_kbytes(document),
        doc_count=source.engine.store.token_count(hit.doc_id),
    )


def oracle_search(source: StartsSource, query: SQuery) -> SQResults:
    """Evaluate a STARTS query at this single source."""
    query.validate()
    translator = QueryTranslator(
        source.capabilities,
        source.analyzer,
        query.default_language,
        native_syntax=source.native_syntax,
    )
    drop_stop_words = query.drop_stop_words
    if not source.capabilities.turn_off_stop_words:
        drop_stop_words = True

    filter_outcome = translator.translate_filter(query.filter_expression, drop_stop_words)
    ranking_outcome = translator.translate_ranking(
        query.ranking_expression, drop_stop_words
    )

    if filter_outcome.engine_query is None and ranking_outcome.engine_query is None:
        return SQResults(
            sources=(source.source_id,),
            actual_filter_expression=filter_outcome.actual,
            actual_ranking_expression=ranking_outcome.actual,
            documents=(),
        )

    limit = query.max_number_documents
    if source.capabilities.result_cap is not None:
        limit = min(limit, source.capabilities.result_cap)

    min_score = 0.0
    if ranking_outcome.engine_query is not None:
        min_score = query.min_document_score
    hits = source.engine.search(
        filter_query=filter_outcome.engine_query,
        ranking_query=ranking_outcome.engine_query,
        top_k=limit if source._score_ordered(query) else None,
        min_score=min_score,
    )

    documents = [oracle_to_document(source, hit, query) for hit in hits]
    documents = source._sort_documents(documents, query)
    documents = documents[:limit]

    return SQResults(
        sources=(source.source_id,),
        actual_filter_expression=filter_outcome.actual,
        actual_ranking_expression=ranking_outcome.actual,
        documents=tuple(documents),
    )


class OracleSource(StartsSource):
    """A source answering through :func:`oracle_search` (for ``Resource``)."""

    def search(self, query: SQuery) -> SQResults:
        return oracle_search(self, query)
