"""Term-at-a-time query evaluation with per-query statistics reuse.

:class:`QueryTermContext` is the engine's exhaustive ranking evaluator
— the reference the pruned driver (:mod:`repro.engine.pruning`) must
match and the path every query shape it cannot bound falls back to:

* each distinct ranking term is expanded **once** per query;
* each term's posting columns are walked **once**, materializing
  ``doc_id → tf`` plus the term's document frequency;
* the collection statistics (document count, average document length)
  are read once and the per-(term, document) engine weights are
  precomputed from them;
* ``list(...)`` nodes are scored with accumulator dictionaries and
  fuzzy-Boolean nodes with per-node ``doc → score`` maps;
* the same context answers the STARTS ``TermStats`` for every hit with
  zero re-traversal.

The produced scores, hit order and ``TermStats`` are exactly those of
the per-candidate recursion the engine started from, which lives on as
a test oracle in ``tests/oracles/daat.py`` (held to the engine by
``tests/engine/test_evaluation_equivalence.py``).

One contract is worth stating: a document carrying none of the query's
terms is scored *implicitly* — its node values are the node's
"zero value", the score the node takes when every term weight is 0.0.
All five vendor ranking algorithms map all-zero contributions to 0.0,
so such documents never enter the result unless a Boolean filter put
them there (in which case they are emitted with their zero value, just
as the oracle emits them).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, NamedTuple

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

if TYPE_CHECKING:  # pragma: no cover - import cycle with search.py
    from repro.engine.search import SearchEngine

__all__ = [
    "TERM_AT_A_TIME",
    "PRUNED",
    "EVALUATION_MODES",
    "TermHitStats",
    "EngineHit",
    "TermPostings",
    "QueryTermContext",
    "hit_order_key",
    "top_k_hits",
]

#: The engine default: rank-safe MaxScore/block-max pruning for
#: score-sorted top-k queries; query shapes it cannot prune fall back to
#: the exhaustive path, so results are always bit-identical to it (see
#: :mod:`repro.engine.pruning`).
PRUNED = "pruned"
#: The exhaustive path alone: one pass over each posting list.  It is
#: the pruned driver's fallback and the pruning suites' reference.
TERM_AT_A_TIME = "term_at_a_time"
EVALUATION_MODES = (PRUNED, TERM_AT_A_TIME)


class TermHitStats(NamedTuple):
    """Per-query-term statistics for one document (STARTS ``TermStats``).

    Attributes:
        field: field the term was evaluated against.
        text: the query term's original text.
        term_frequency: occurrences of the (expanded) term in the doc.
        term_weight: the engine's internal weight for the term.
        document_frequency: documents in the source containing the term.
    """

    field: str
    text: str
    term_frequency: int
    term_weight: float
    document_frequency: int


@dataclass(slots=True)
class EngineHit:
    """One document in an engine result, with merge-grade statistics."""

    doc_id: int
    score: float
    term_stats: list[TermHitStats] = dataclass_field(default_factory=list)


@dataclass(slots=True)
class TermPostings:
    """One ranking term's materialized statistics for one query.

    Attributes:
        doc_tf: document id → term frequency, aggregated over every
            index term the query term expands to (restricted to the
            filter candidates when the query has a filter).
        document_frequency: distinct documents containing any expansion,
            over the *whole* source (never candidate-restricted — the
            STARTS df statistic describes the source, not the result).
        doc_weight: document id → the engine's term weight, precomputed
            from (tf, df, collection size, document length).
    """

    doc_tf: dict[int, int]
    document_frequency: int
    doc_weight: dict[int, float]


def _term_key(term: TermQuery) -> tuple[str, str, str, frozenset[str]]:
    """Statistics identity of a term: everything except its query weight."""
    return (term.field, term.text, term.language, term.modifiers)


def _materialize(
    engine: "SearchEngine", expansions: dict[str, set[str]], candidates=None
) -> tuple[TermPostings, int]:
    """One pass over a query term's posting columns.

    tf sums over every (field, index term) the term expands to; df
    counts distinct documents over the whole source even when
    ``candidates`` restricts the tfs.  Returns the statistics and the
    postings walked.  The exhaustive context and the pruned driver's
    multi-expansion terms both materialize through here.
    """
    doc_tf: dict[int, int] = {}
    df_docs: set[int] = set()
    walked = 0
    for field_name, index_terms in expansions.items():
        for index_term in index_terms:
            postings = engine.index.pruned_postings(field_name, index_term)
            doc_ids, tfs = postings.columns()
            walked += len(doc_ids)
            if candidates is not None:
                df_docs.update(doc_ids)
            for doc_id, tf in zip(doc_ids, tfs):
                if candidates is None or doc_id in candidates:
                    doc_tf[doc_id] = doc_tf.get(doc_id, 0) + tf
    df = len(df_docs) if candidates is not None else len(doc_tf)
    token_count = engine.store.token_count
    term_weight = engine.ranking.term_weight
    n_docs, avg = engine.document_count, engine.store.average_token_count()
    doc_weight = {
        doc_id: term_weight(tf, df, n_docs, token_count(doc_id), avg)
        for doc_id, tf in doc_tf.items()
    }
    return TermPostings(doc_tf, df, doc_weight), walked


class QueryTermContext:
    """Per-query evaluation context for one ranking expression.

    Built once per ``search``/``evaluate_ranking`` call; owns every
    statistic the query needs so no posting list is walked more than
    once and no term is expanded more than once.

    Args:
        engine: the engine to evaluate against (must have a ranking
            algorithm).
        query: the ranking expression.
        candidates: the Boolean filter's document set, or None when the
            query has no filter.
    """

    def __init__(
        self,
        engine: "SearchEngine",
        query: EngineQuery,
        candidates: set[int] | None = None,
    ) -> None:
        if engine.ranking is None:
            raise RuntimeError("this engine does not support ranking expressions")
        self._engine = engine
        self._query = query
        self._candidates = candidates
        self._ranking = engine.ranking
        self._by_term: dict[tuple, TermPostings] = {}
        #: ``(field, text, statistics)`` per query term, left to right:
        #: every hit's TermStats, resolved once per query.
        self._term_columns: list[tuple[str, str, TermPostings]] = []
        #: Total postings visited while materializing this query's
        #: statistics — the term-at-a-time work metric.
        self.postings_walked = 0
        for term in query.terms():
            key = _term_key(term)
            if key not in self._by_term:
                self._by_term[key], walked = _materialize(
                    engine, engine.matcher.expand(term), candidates
                )
                self.postings_walked += walked
            self._term_columns.append((term.field, term.text, self._by_term[key]))
        self._root_scores: dict[int, float] | None = None
        self._root_zero = 0.0

    # -- node scoring ----------------------------------------------------

    def _node_scores(self, node: EngineQuery) -> dict[int, float]:
        """doc → score for one query node.

        Documents absent from the map take the node's zero value (see
        :meth:`_zero_value`); all map/absence combinations reproduce the
        oracle's per-document recursion exactly.
        """
        if isinstance(node, TermQuery):
            stats = self._by_term[_term_key(node)]
            weight = node.weight
            return {
                doc_id: weight * w for doc_id, w in stats.doc_weight.items()
            }
        if isinstance(node, ListQuery):
            children = [
                (
                    child.weight if isinstance(child, TermQuery) else 1.0,
                    self._node_scores(child),
                    self._zero_value(child),
                )
                for child in node.children
            ]
            combine = self._ranking.combine
            scores: dict[int, float] = {}
            for doc_id in self._support(pair[1] for pair in children):
                scores[doc_id] = combine(
                    [(q_weight, m.get(doc_id, zero)) for q_weight, m, zero in children]
                )
            return scores
        if isinstance(node, BooleanQuery):
            children = [
                (self._node_scores(child), self._zero_value(child))
                for child in node.children
            ]
            support = self._support(pair[0] for pair in children)
            if node.operator == AND:
                return {
                    doc_id: min(m.get(doc_id, zero) for m, zero in children)
                    for doc_id in support
                }
            if node.operator == OR:
                return {
                    doc_id: max(m.get(doc_id, zero) for m, zero in children)
                    for doc_id in support
                }
            if node.operator == AND_NOT:
                (pos, pos_zero), (neg, neg_zero) = children
                return {
                    doc_id: max(
                        0.0, pos.get(doc_id, pos_zero) - neg.get(doc_id, neg_zero)
                    )
                    for doc_id in support
                }
        if isinstance(node, ProxQuery):
            prox_docs = self._engine._prox_docs(node)
            if self._candidates is not None:
                prox_docs &= self._candidates
            left = self._node_scores(node.left)
            right = self._node_scores(node.right)
            return {
                doc_id: min(left.get(doc_id, 0.0), right.get(doc_id, 0.0))
                for doc_id in prox_docs
            }
        raise TypeError(f"cannot score node: {type(node).__name__}")

    def _zero_value(self, node: EngineQuery) -> float:
        """The node's score for a document containing none of its terms."""
        if isinstance(node, (TermQuery, ProxQuery)):
            return 0.0
        if isinstance(node, ListQuery):
            return self._ranking.combine(
                [
                    (
                        child.weight if isinstance(child, TermQuery) else 1.0,
                        self._zero_value(child),
                    )
                    for child in node.children
                ]
            )
        if isinstance(node, BooleanQuery):
            zeros = [self._zero_value(child) for child in node.children]
            if node.operator == AND:
                return min(zeros)
            if node.operator == OR:
                return max(zeros)
            return max(0.0, zeros[0] - zeros[1])
        raise TypeError(f"cannot score node: {type(node).__name__}")

    @staticmethod
    def _support(maps) -> set[int]:
        support: set[int] = set()
        for score_map in maps:
            support.update(score_map)
        return support

    # -- results ----------------------------------------------------------

    def scores(self, min_score: float = 0.0) -> dict[int, float]:
        """doc → finalized score, exactly as ``evaluate_ranking`` returns.

        With candidates, every candidate gets an entry (zero-score
        documents included); without, only positive-scoring documents
        appear, drawn from the union of the terms' posting supports.

        ``min_score`` (the answer specification's ``MinDocumentScore``)
        is applied **during** accumulation when the ranking algorithm's
        ``finalize`` is the identity — the filter commutes with
        finalize, so sub-threshold documents never take accumulator
        entries.  Algorithms with a real finalize pass (the top-doc
        rescaler) ignore it here; the caller filters post-hoc.
        """
        if self._root_scores is None:
            self._root_scores = self._node_scores(self._query)
            self._root_zero = self._zero_value(self._query)
        root, zero = self._root_scores, self._root_zero
        floor = (
            min_score
            if min_score > 0.0 and self._ranking.finalize_is_identity
            else None
        )
        if self._candidates is not None:
            if floor is None:
                raw = {doc_id: root.get(doc_id, zero) for doc_id in self._candidates}
            else:
                raw = {}
                for doc_id in self._candidates:
                    value = root.get(doc_id, zero)
                    if value >= floor:
                        raw[doc_id] = value
        else:
            raw = {}
            for doc_id in self._support(
                stats.doc_tf for stats in self._by_term.values()
            ):
                value = root.get(doc_id, zero)
                if value > 0.0 and (floor is None or value >= floor):
                    raw[doc_id] = value
        return self._ranking.finalize(raw)

    @property
    def applied_min_score(self) -> bool:
        """Whether :meth:`scores` honours a ``min_score`` floor itself."""
        return self._ranking.finalize_is_identity

    def hit_term_stats(self, doc_id: int) -> list[TermHitStats]:
        """STARTS ``TermStats`` for one hit, straight from the context."""
        stats: list[TermHitStats] = []
        for field, text, postings in self._term_columns:
            tf = postings.doc_tf.get(doc_id, 0)
            weight = postings.doc_weight.get(doc_id, 0.0) if tf else 0.0
            stats.append(
                TermHitStats(field, text, tf, weight, postings.document_frequency)
            )
        return stats


def hit_order_key(item: tuple[int, float]) -> tuple[float, int]:
    """The canonical hit order: descending score, then ascending doc id.

    This key is the engine's tie contract.  Everything that orders or
    truncates hits — :func:`top_k_hits`, the pruned evaluator's
    candidate selection — must sort by exactly this key, so that
    duplicate scores straddling the kth position resolve identically on
    every evaluation path and backend.
    """
    return (-item[1], item[0])


def top_k_hits(
    scores: dict[int, float], top_k: int | None
) -> list[tuple[int, float]]:
    """(doc_id, score) pairs in :func:`hit_order_key` order.

    With ``top_k`` below the result size, a heap selects the top k in
    O(n log k) without sorting — or materializing — the full result.
    ``heapq.nsmallest`` breaks key ties by input position, but the key
    is injective here (doc ids are unique), so the selected prefix is
    identical to ``sorted(...)[:top_k]``.
    """
    if top_k is not None and top_k < len(scores):
        return heapq.nsmallest(top_k, scores.items(), key=hit_order_key)
    return sorted(scores.items(), key=hit_order_key)
