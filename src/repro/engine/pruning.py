"""Rank-safe dynamic pruning: a MaxScore-partitioned top-k driver.

STARTS pushes ``MaxNumberDocuments`` and ``MinDocumentScore`` down to
sources precisely so they can avoid scoring their whole collections;
this module is the engine's side of that bargain.  The exhaustive
evaluators materialize an accumulator entry for every matching document
and heap-select afterwards; :class:`PrunedContext` instead bounds every
term's best possible contribution and stops paying for documents that
provably cannot reach the kth score:

* each unique term gets a **score cap** — its summed query coefficient
  times :meth:`~repro.engine.ranking.RankingAlgorithm.
  weight_upper_bound` at the term's (max tf, min doc length) extremes,
  from the in-memory index's incremental metadata or the segment
  store's block-max column;
* terms are processed in descending-cap order; a term stays
  **essential** (full posting walk) only while documents made of
  nothing but it and cheaper terms could still reach the threshold —
  after that the pass only *probes* surviving candidates, skipping the
  rest of the list outright;
* a probe pass walks the candidates once, in doc-id order, against the
  term's postings as an ascending run of spans (one per segment block,
  one for the tail); a block's (max tf, min doc length) bound is
  weighed once per pass, and when even it cannot lift a candidate over
  the threshold, the candidate dies without the block being decoded;
* the threshold starts at ``MinDocumentScore`` and tightens to the
  kth-best accumulated lower bound as candidates fill in.

**Rank safety.**  Returned hits are bit-identical — documents, scores,
order — to the exhaustive oracles.  Three disciplines make that true:

1. *Exact scores are never approximated.*  Pruning only decides which
   documents to keep; every surviving document's score is computed by
   the same ``term_weight``/``combine`` calls, over the same children
   in the same order, as the exhaustive path — the identical float
   expression gives the identical float.
2. *Skips are strict.*  A document is dropped only when an inflated
   upper bound of its score falls strictly below a deflated lower
   bound of the kth score (both through the algorithm's monotone
   raw↔score maps, shaded by a relative margin that dwarfs any
   accumulated rounding noise).  Boundary ties are always scored
   exactly, so the :func:`~repro.engine.evaluation.hit_order_key` tie
   contract at the kth position is preserved even when the monotone
   combine map collapses distinct raw sums to equal floats.
3. *Unsafe shapes never enter.*  :func:`supports_pruning` admits only
   score-sorted, filterless, flat term queries under an algorithm whose
   ``prunable`` contract holds; everything else (prox nodes, fuzzy
   Boolean trees, Boolean-filtered queries, the top-doc rescaler)
   transparently falls back to the exhaustive path.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import nlargest
from typing import TYPE_CHECKING

from repro.engine.evaluation import (
    TermHitStats,
    TermPostings,
    _materialize,
    _term_key,
    hit_order_key,
)
from repro.engine.index import TermState
from repro.engine.query import EngineQuery, ListQuery, TermQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle with search.py
    from repro.engine.search import SearchEngine

__all__ = ["PrunedContext", "supports_pruning"]

#: Relative safety margins separating bounds from exact scores.  Bound
#: arithmetic regroups float sums (per-term coefficients instead of the
#: per-child combine order), which can drift from the exact sum by a
#: few ulps (~1e-16 relative); inflating upper bounds and deflating
#: thresholds by 1e-9 makes every strict comparison safe while giving
#: up a vanishing sliver of pruning power.
_EPS_UP = 1.0 + 1e-9
_EPS_DOWN = 1.0 - 1e-9


def supports_pruning(
    ranking, query: EngineQuery, top_k: int | None, min_score: float
) -> bool:
    """Whether the pruned driver can evaluate this query rank-safely.

    Requires a prunable algorithm, something to prune *against* (a
    top-k bound or a positive score floor), non-negative query weights
    (the non-negativity of contributions underlies every bound), and a
    flat shape: a bare term or a ``list(...)`` of terms.
    """
    if ranking is None or not ranking.prunable:
        return False
    if top_k is None and min_score <= 0.0:
        return False
    if isinstance(query, TermQuery):
        return query.weight >= 0.0
    if isinstance(query, ListQuery):
        return bool(query.children) and all(
            isinstance(child, TermQuery) and child.weight >= 0.0
            for child in query.children
        )
    return False


class _MaterializedAccessor(TermState):
    """Aggregated access for multi-expansion terms (stems, fan-out).

    Expansion-aggregated tf has no per-list metadata, so these terms
    are materialized upfront exactly like the exhaustive path — their
    cap is the max of their *exact* weights and their postings are
    never skipped: one span with no bound.  Modifier-heavy terms are
    rare; correctness wins.
    """

    __slots__ = ("doc_tf", "doc_weight", "max_weight")

    def __init__(self, postings: TermPostings) -> None:
        self.doc_tf = postings.doc_tf
        self.df = postings.document_frequency
        self.doc_weight = postings.doc_weight
        self.max_weight = max(postings.doc_weight.values(), default=0.0)

    def tf_map(self) -> dict[int, int]:
        return self.doc_tf

    def columns(self) -> tuple[list[int], list[int]]:
        doc_ids = sorted(self.doc_tf)
        return doc_ids, [self.doc_tf[doc_id] for doc_id in doc_ids]


class _PrunedTerm:
    """One unique ranking term's state across the driver's passes."""

    __slots__ = ("accessor", "coef", "df", "ub", "weights", "tfs")

    def __init__(self, accessor) -> None:
        self.accessor = accessor
        #: Σ over occurrences of the raw-sum coefficient each occurrence
        #: contributes (q for a bare root term, q² inside ``list`` —
        #: the child's node score is already weight-multiplied before
        #: ``combine`` weights it again).
        self.coef = 0.0
        self.df = accessor.df
        self.ub = 0.0
        self.weights: dict[int, float] = {}
        self.tfs: dict[int, int] = {}


class PrunedContext:
    """MaxScore evaluation of one score-sorted query.

    Built once per ``search`` call for shapes :func:`supports_pruning`
    admits; :meth:`hits` returns the final truncated hit list and
    :meth:`hit_term_stats` answers TermStats for exactly those hits.
    """

    def __init__(
        self,
        engine: "SearchEngine",
        query: EngineQuery,
        top_k: int | None,
        min_score: float,
    ) -> None:
        assert engine.ranking is not None
        self._engine = engine
        self._ranking = engine.ranking
        self._top_k = top_k
        self._min_score = min_score
        self._n_docs = engine.document_count
        self._avg_doc_len = engine.store.average_token_count()
        self.postings_walked = 0
        self.postings_skipped = 0
        self.blocks_skipped = 0
        #: The final combined-score threshold the driver reached.
        self.threshold = 0.0
        self._pruned_docs = 0
        self._closed_passes = 0
        self.truncated = False
        self._root_is_term = isinstance(query, TermQuery)
        assert self._root_is_term or isinstance(query, ListQuery)
        #: ``(q weight, term, its record)`` per child, left to right —
        #: the scoring order and the TermStats order of every hit.
        self._children: list[tuple[float, TermQuery, _PrunedTerm]] = []
        self._terms: dict[tuple, _PrunedTerm] = {}
        for term in query.terms():
            key = _term_key(term)
            record = self._terms.get(key)
            if record is None:
                record = self._terms[key] = _PrunedTerm(self._make_accessor(term))
            q_weight = term.weight
            record.coef += q_weight if self._root_is_term else q_weight * q_weight
            self._children.append((q_weight, term, record))
        self._child_qs = [q_weight for q_weight, _, _ in self._children]
        self._hits: list[tuple[int, float]] | None = None

    # -- term access -------------------------------------------------------

    def _make_accessor(self, term: TermQuery):
        engine = self._engine
        expansions = engine.matcher.expand(term)
        pairs = [
            (field_name, index_term)
            for field_name, index_terms in expansions.items()
            for index_term in index_terms
        ]
        if len(pairs) == 1:
            return engine.index.pruned_postings(*pairs[0])
        # Multi-expansion: aggregate tf exactly as the exhaustive
        # context does, with the same weights.
        postings, walked = _materialize(engine, expansions)
        self.postings_walked += walked
        return _MaterializedAccessor(postings)

    # -- the driver --------------------------------------------------------

    def _raw_cut(self, threshold: float) -> float:
        """The raw-sum cut equivalent to a combined-score threshold."""
        if threshold <= 0.0:
            return 0.0
        if self._root_is_term:
            # A bare term's score is q·w — no combine map to invert.
            return threshold
        return self._ranking.raw_score_threshold(threshold, self._child_qs)

    def _score_from_raw(self, raw: float) -> float:
        if self._root_is_term:
            return raw
        return self._ranking.score_from_raw(raw, self._child_qs)

    def _evaluate(self) -> list[tuple[int, float]]:
        ranking = self._ranking
        n_docs = self._n_docs
        avg = self._avg_doc_len
        token_count = self._engine.store.token_count
        term_weight = ranking.term_weight
        weight_upper_bound = ranking.weight_upper_bound
        top_k = self._top_k
        min_score = self._min_score
        global_min_len = self._engine.store.min_token_count()

        terms = list(self._terms.values())
        for record in terms:
            accessor = record.accessor
            max_weight = getattr(accessor, "max_weight", None)
            if max_weight is None:
                min_len = accessor.min_len
                if min_len is None:
                    min_len = global_min_len
                max_weight = weight_upper_bound(
                    accessor.max_tf, record.df, n_docs, min_len, avg
                )
            record.ub = record.coef * max_weight * _EPS_UP
        terms.sort(key=lambda record: -record.ub)
        rest = [0.0] * (len(terms) + 1)
        for position in range(len(terms) - 1, -1, -1):
            rest[position] = rest[position + 1] + terms[position].ub

        theta = min_score if min_score > 0.0 else 0.0
        cut = self._raw_cut(theta)
        acc: dict[int, float] = {}
        for position, record in enumerate(terms):
            remaining = rest[position + 1]
            accessor = record.accessor
            coef = record.coef
            df = record.df
            if rest[position] >= cut:
                # Essential pass: every document of this list could, on
                # its own plus the cheaper tail, still reach the
                # threshold — walk it fully and admit everyone.  (No
                # mutation after this pass, so aliasing a materialized
                # accessor's own maps is safe.)
                tfs = accessor.tf_map()
                weights = accessor.doc_weight
                if weights is None:
                    self.postings_walked += len(tfs)
                    weights = accessor.weight_map(ranking, n_docs, token_count, avg)
                record.tfs = tfs
                record.weights = weights
                if acc:
                    get = acc.get
                    for doc_id, weight in weights.items():
                        acc[doc_id] = get(doc_id, 0.0) + coef * weight
                else:
                    for doc_id, weight in weights.items():
                        acc[doc_id] = coef * weight
            else:
                # Non-essential pass: no new document can reach the
                # threshold, so only probe surviving candidates — and
                # drop each the moment its ceiling falls below the cut.
                # The candidates go in doc-id order against the term's
                # run of spans, with one cursor: a span's bound is
                # weighed once, its columns decoded only when a
                # candidate gets past the bound, and each tf is found
                # by moving forward in them.
                self._closed_passes += 1
                tfs = record.tfs
                weights = record.weights
                precomputed = accessor.doc_weight
                limit = cut * _EPS_DOWN - (record.ub + remaining)
                limit_rest = cut * _EPS_DOWN - remaining
                probes = pruned = blocks_skipped = 0
                spans = iter(accessor.spans())
                last_id = -1
                for doc_id, partial in sorted(acc.items()):
                    if partial < limit:
                        del acc[doc_id]
                        pruned += 1
                        continue
                    if doc_id > last_id:
                        for last_id, bound, columns in spans:
                            if last_id >= doc_id:
                                break
                        span_ub = None if bound is None else coef * weight_upper_bound(
                            bound[0], df, n_docs, bound[1], avg
                        )
                        span_ids = None
                    if span_ub is not None and partial + span_ub < limit_rest:
                        del acc[doc_id]
                        pruned += 1
                        blocks_skipped += 1
                        continue
                    if span_ids is None:
                        span_ids, span_tfs = columns()
                        slot, size = 0, len(span_ids)
                    slot = bisect_left(span_ids, doc_id, slot, size)
                    tf = span_tfs[slot] if slot < size and span_ids[slot] == doc_id else 0
                    probes += 1
                    if tf:
                        weight = (
                            precomputed[doc_id]
                            if precomputed is not None
                            else term_weight(tf, df, n_docs, token_count(doc_id), avg)
                        )
                        tfs[doc_id] = tf
                        weights[doc_id] = weight
                        partial += coef * weight
                        acc[doc_id] = partial
                    if partial < limit_rest:
                        del acc[doc_id]
                        pruned += 1
                self._pruned_docs += pruned
                self.blocks_skipped += blocks_skipped
                self.postings_walked += probes
                if df > probes:
                    self.postings_skipped += df - probes
                if not acc:
                    break
            if (
                top_k is not None
                and top_k > 0
                and position + 1 < len(terms)
                and len(acc) >= top_k
            ):
                kth = nlargest(top_k, acc.values())[-1] * _EPS_DOWN
                candidate = self._score_from_raw(kth)
                if candidate > theta:
                    theta = candidate
                    cut = self._raw_cut(theta)
        self.threshold = theta

        # Exact scoring of the survivors: the same float expressions,
        # over the same children in the same order, as the exhaustive
        # paths — identical inputs, identical floats.
        results: list[tuple[int, float]] = []
        apply_floor = min_score > 0.0
        if self._root_is_term:
            q_weight = self._children[0][0]
            weights = terms[0].weights
            for doc_id in acc:
                score = q_weight * weights.get(doc_id, 0.0)
                if score > 0.0 and (not apply_floor or score >= min_score):
                    results.append((doc_id, score))
        else:
            combine = ranking.combine
            columns = [
                (q_weight, record.weights) for q_weight, _, record in self._children
            ]
            for doc_id in acc:
                score = combine(
                    [
                        (q_weight, q_weight * weights.get(doc_id, 0.0))
                        for q_weight, weights in columns
                    ]
                )
                if score > 0.0 and (not apply_floor or score >= min_score):
                    results.append((doc_id, score))
        results.sort(key=hit_order_key)
        if top_k is not None:
            # The truncation signal is approximate on purpose: pruned
            # documents were never scored, so whether they *would* have
            # qualified is unknowable.  Any pruning or closed pass means
            # the query was bounded by top-k pressure, which is what the
            # counter tracks.
            self.truncated = (
                len(results) > top_k
                or self._pruned_docs > 0
                or self._closed_passes > 0
            )
            results = results[:top_k]
        return results

    # -- results -----------------------------------------------------------

    def hits(self) -> list[tuple[int, float]]:
        """The final (doc_id, score) list, ordered and truncated."""
        if self._hits is None:
            self._hits = self._evaluate()
        return self._hits

    def hit_term_stats(self, doc_id: int) -> list[TermHitStats]:
        """STARTS ``TermStats`` for one returned hit."""
        stats: list[TermHitStats] = []
        for _, term, record in self._children:
            tf = record.tfs.get(doc_id, 0)
            weight = record.weights.get(doc_id, 0.0) if tf else 0.0
            stats.append(
                TermHitStats(term.field, term.text, tf, weight, record.df)
            )
        return stats
