"""The document-at-a-time ranking evaluator ``SearchEngine`` used to ship.

``_evaluate_ranking_document_at_a_time``, ``_candidate_docs``,
``_score_node``, ``_term_score``, ``_term_doc_stats`` and
``_hit_term_stats`` are moved here verbatim from
``repro/engine/search.py``; only the ``self`` receivers became an
``engine`` argument, and the posting lists it re-walks became the
index's (doc id, tf) columns when the engine stopped building
per-posting objects.  :func:`oracle_search` is the
``evaluation="document_at_a_time"`` route through the old
``_search_timed`` (filter, Boolean-only answers, post-hoc
``min_score``, ``top_k_hits``, per-hit ``TermStats``) without the
metrics bookkeeping.  It scores one candidate at a time and re-walks
every posting list per (term, document) — O(candidates × postings) —
which is why it is an oracle: nothing is shared with the
accumulator-based evaluators it checks.
``tests/engine/test_evaluation_equivalence.py`` holds the engine to it
exactly (hits, float scores, order, ``TermStats``).
"""

from __future__ import annotations

from repro.engine.evaluation import EngineHit, TermHitStats, top_k_hits
from repro.engine.query import (
    AND,
    AND_NOT,
    OR,
    BooleanQuery,
    EngineQuery,
    ListQuery,
    ProxQuery,
    TermQuery,
)
from repro.engine.search import SearchEngine

__all__ = ["oracle_evaluate_ranking", "oracle_search"]


def oracle_evaluate_ranking(
    engine: SearchEngine, query: EngineQuery, candidates: set[int] | None = None
) -> dict[int, float]:
    """The original per-candidate recursion (the reference oracle)."""
    assert engine.ranking is not None
    scores: dict[int, float] = {}
    universe = candidates if candidates is not None else _candidate_docs(engine, query)
    for doc_id in universe:
        score = _score_node(engine, query, doc_id)
        if score > 0.0 or candidates is not None:
            scores[doc_id] = score
    return engine.ranking.finalize(scores)


def _candidate_docs(engine: SearchEngine, query: EngineQuery) -> set[int]:
    docs: set[int] = set()
    for term in query.terms():
        docs |= engine._term_docs(term)
    return docs


def _score_node(engine: SearchEngine, query: EngineQuery, doc_id: int) -> float:
    if isinstance(query, TermQuery):
        return _term_score(engine, query, doc_id)
    if isinstance(query, ListQuery):
        contributions = [
            (child.weight if isinstance(child, TermQuery) else 1.0,
             _score_node(engine, child, doc_id))
            for child in query.children
        ]
        assert engine.ranking is not None
        return engine.ranking.combine(contributions)
    if isinstance(query, BooleanQuery):
        child_scores = [_score_node(engine, child, doc_id) for child in query.children]
        if query.operator == AND:
            return min(child_scores)
        if query.operator == OR:
            return max(child_scores)
        if query.operator == AND_NOT:
            return max(0.0, child_scores[0] - child_scores[1])
    if isinstance(query, ProxQuery):
        if doc_id in engine._prox_docs(query):
            return min(
                _term_score(engine, query.left, doc_id),
                _term_score(engine, query.right, doc_id),
            )
        return 0.0
    raise TypeError(f"cannot score node: {type(query).__name__}")


def _term_score(engine: SearchEngine, term: TermQuery, doc_id: int) -> float:
    assert engine.ranking is not None
    tf, df = _term_doc_stats(engine, term, doc_id)
    if tf == 0:
        return 0.0
    weight = engine.ranking.term_weight(
        tf,
        df,
        engine.document_count,
        engine.store.token_count(doc_id),
        engine.store.average_token_count(),
    )
    return term.weight * weight


def _term_doc_stats(
    engine: SearchEngine, term: TermQuery, doc_id: int
) -> tuple[int, int]:
    """(tf in this doc, df in the source) for a query term.

    The term's modifier expansion is honoured: tf/df aggregate over
    every index term the query term denotes, and df counts distinct
    documents.
    """
    tf = 0
    df_docs: set[int] = set()
    for field_name, index_terms in engine.matcher.expand(term).items():
        for index_term in index_terms:
            postings = engine.index.pruned_postings(field_name, index_term)
            for posting_doc, posting_tf in zip(*postings.columns()):
                df_docs.add(posting_doc)
                if posting_doc == doc_id:
                    tf += posting_tf
    return tf, len(df_docs)


def _hit_term_stats(
    engine: SearchEngine, ranking_query: EngineQuery, doc_id: int
) -> list[TermHitStats]:
    stats: list[TermHitStats] = []
    for term in ranking_query.terms():
        tf, df = _term_doc_stats(engine, term, doc_id)
        weight = 0.0
        if tf and engine.ranking is not None:
            weight = engine.ranking.term_weight(
                tf,
                df,
                engine.document_count,
                engine.store.token_count(doc_id),
                engine.store.average_token_count(),
            )
        stats.append(TermHitStats(term.field, term.text, tf, weight, df))
    return stats


def oracle_search(
    engine: SearchEngine,
    filter_query: EngineQuery | None = None,
    ranking_query: EngineQuery | None = None,
    *,
    top_k: int | None = None,
    min_score: float = 0.0,
) -> list[EngineHit]:
    """``SearchEngine.search`` as ``evaluation="document_at_a_time"`` ran it."""
    if filter_query is None and ranking_query is None:
        return []

    candidates: set[int] | None = None
    if filter_query is not None:
        candidates = engine.evaluate_filter(filter_query)
        if not candidates:
            return []

    if ranking_query is None or engine.ranking is None:
        if candidates is None:
            return []
        hits = [EngineHit(doc_id, 0.0) for doc_id in sorted(candidates)]
        if ranking_query is not None and min_score > 0.0:
            hits = [hit for hit in hits if hit.score >= min_score]
        return hits if top_k is None else hits[:top_k]

    scores = oracle_evaluate_ranking(engine, ranking_query, candidates)
    if min_score > 0.0:
        scores = {
            doc_id: score for doc_id, score in scores.items() if score >= min_score
        }
    return [
        EngineHit(doc_id, score, _hit_term_stats(engine, ranking_query, doc_id))
        for doc_id, score in top_k_hits(scores, top_k)
    ]
