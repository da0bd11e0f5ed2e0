"""The source's answer assembly as it stood before the one-pass writer.

``StartsSource._to_document`` (the answer-field names re-canonicalised
and a fresh ``STerm`` built per hit), ``StartsSource._sort_documents``,
``StartsSource._score_ordered`` and ``Document.size_kbytes`` (join and
UTF-8-encode the whole text to count it) are moved here verbatim from
``repro/source/source.py`` and ``repro/engine/documents.py`` — the sort
with one fix, marked where it is; ``oracle_search`` is
``StartsSource.search`` as it was, calling them, an ``SQResults`` of
``SQRDocument`` objects.
``tests/source/test_answer_assembly.py`` holds ``StartsSource.respond``
to these, encoded by ``tests/oracles/soif_encode.py``, byte for byte.
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
from repro.starts.query import SCORE_SORT_FIELD, SQuery
from repro.starts.results import SQRDocument, SQResults, TermStats
from tests.oracles.soif_encode import oracle_results_to_soif_stream

__all__ = [
    "oracle_size_kbytes",
    "oracle_to_document",
    "oracle_sort_documents",
    "oracle_search",
    "OracleSource",
]


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


def oracle_sort_documents(
    source: StartsSource, documents: list[SQRDocument], query: SQuery
) -> list[SQRDocument]:
    """Apply the query's sort keys, score-descending by default.

    Multi-key sorts are applied least-significant key first (stable
    sort composition).
    """
    store = source.engine.store
    ordered = list(documents)
    for key in reversed(query.sort_keys):
        if key.field == SCORE_SORT_FIELD:
            ordered.sort(key=lambda doc: doc.raw_score, reverse=key.descending)
        else:
            field_name = canonical_field_name(key.field)
            # The fix: a field the query did not ask back is not on the
            # answer, so fall back to the stored document's value.
            ordered.sort(
                key=lambda doc: doc.get(field_name)
                or store[store.by_linkage(doc.linkage)].get(field_name, ""),
                reverse=key.descending,
            )
    return ordered


def _score_ordered(query: SQuery) -> bool:
    return all(
        key.field == SCORE_SORT_FIELD and key.descending for key in query.sort_keys
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
        top_k=limit if _score_ordered(query) else None,
        min_score=min_score,
    )

    documents = [oracle_to_document(source, hit, query) for hit in hits]
    documents = oracle_sort_documents(source, documents, query)
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

    def respond(self, query: SQuery) -> bytes:
        answer = oracle_search(self, query)
        return oracle_results_to_soif_stream(answer).encode("utf-8")
