"""The rank merger ``metasearch/merging.py`` used to ship.

Until the merge was given its two-step definition (a per-source step
cached on arrival, a cross-source step per read), every strategy scored
one document at a time through ``score(source_id, document, results,
context)`` — tf·idf re-deriving ``total_docs`` per document and walking
every summary per (document, term) — and :class:`StreamingMerge` forked
on ``stable_scores``: stable strategies cached per-source batch merges,
tf·idf and CORI re-ran the whole batch merge over everything fed so far
on every arrival.  The strategy classes and the accumulator are moved
here verbatim (only ``MergeContext`` / ``MergedDocument``, plain data,
are still imported), so they share no scoring code with the module they
check.  ``tests/metasearch/test_incremental_merge.py`` demands the same
floats in the same order from both, after every ``feed``.
"""

from __future__ import annotations

import math

from repro.metasearch.merging import MergeContext, MergedDocument
from repro.metasearch.selection import Cori
from repro.starts.results import SQRDocument, SQResults

__all__ = ["ORACLE_STRATEGIES", "MergeStrategy", "StreamingMerge"]


class MergeStrategy:
    """Interface: per-source results → one merged, deduplicated rank."""

    name = "base"
    #: True when a document's merged score depends only on its *own*
    #: source's results and context slice — never on which other sources
    #: answered.  Stable strategies can merge incrementally (feed one
    #: source at a time) and support provably-sound early termination;
    #: unstable ones (CORI's belief normalization, tf·idf's global
    #: document frequencies) rescore as the answering set grows.
    stable_scores = False

    def merge(
        self, results: dict[str, SQResults], context: MergeContext
    ) -> list[MergedDocument]:
        """Merged rank, best first; duplicates collapse to the best copy."""
        scored: list[MergedDocument] = []
        for source_id in sorted(results):
            for document in results[source_id].documents:
                score = self.score(source_id, document, results, context)
                scored.append(
                    MergedDocument(document.linkage, score, source_id, document)
                )
        return _dedupe_and_sort(scored)

    def score(
        self,
        source_id: str,
        document: SQRDocument,
        results: dict[str, SQResults],
        context: MergeContext,
    ) -> float:
        raise NotImplementedError

    def score_upper_bound(self, source_id: str, context: MergeContext) -> float:
        """Largest merged score any document from ``source_id`` can get.

        ``inf`` (the default) means "no useful bound" — early
        termination then never fires for this strategy.  Bounds assume
        sources honor their advertised metadata (e.g. ``ScoreRange``),
        the same trust every strategy already places in it.
        """
        return math.inf

    def start_stream(self, context: MergeContext) -> "StreamingMerge":
        """An incremental accumulator over this strategy.

        Feed per-source results as they arrive; the accumulator's final
        rank is bit-identical to a batch :meth:`merge` over the same
        per-source results and (suitably filtered) context.
        """
        return StreamingMerge(self, context)


class StreamingMerge:
    """Incremental rank-merge: feed sources one at a time, read the rank.

    For stable-score strategies each source is scored exactly once on
    arrival (its per-source slice of a batch merge) and the global rank
    is a cheap dedupe-and-sort of the cached pieces.  For unstable
    strategies the accumulator re-runs the full batch merge over the
    sources fed so far, with the context narrowed to the fed sources by
    the same :meth:`MergeContext.restricted_to` the batch path uses —
    either way the final rank equals the batch oracle by construction.
    """

    def __init__(self, strategy: MergeStrategy, context: MergeContext) -> None:
        self.strategy = strategy
        self.context = context
        self._fed: dict[str, SQResults] = {}
        self._scored: list[MergedDocument] = []  # stable path's cache
        self._rank: list[MergedDocument] = []
        self._dirty = False

    @property
    def fed_source_ids(self) -> tuple[str, ...]:
        return tuple(self._fed)

    def feed(self, source_id: str, results: SQResults) -> None:
        """Add one source's results (at most once per source)."""
        if source_id in self._fed:
            raise ValueError(f"source {source_id!r} already fed")
        self._fed[source_id] = results
        if self.strategy.stable_scores:
            self._scored.extend(
                self.strategy.merge(
                    {source_id: results}, self.context.restricted_to(self._fed)
                )
            )
        self._dirty = True

    def merged(self) -> list[MergedDocument]:
        """The merged rank over every source fed so far, best first."""
        if self._dirty:
            if self.strategy.stable_scores:
                self._rank = _dedupe_and_sort(list(self._scored))
            else:
                self._rank = self.strategy.merge(
                    dict(self._fed), self.context.restricted_to(self._fed)
                )
            self._dirty = False
        return self._rank

    def current_top_k(self, k: int | None = None) -> list[MergedDocument]:
        rank = self.merged()
        return rank if k is None else rank[:k]

    def is_stable_top_k(self, k: int, pending_source_ids) -> bool:
        """Can no pending source change the top ``k`` of the rank?

        Requires a stable-score strategy, ``k`` documents already
        merged, and the k-th score *strictly* above every pending
        source's score upper bound: at equal scores the ``(score,
        linkage)`` tie-break could still reorder, and a duplicate
        arriving at exactly the bound could not raise any held score
        past one strictly above it.
        """
        if not self.strategy.stable_scores:
            return False
        rank = self.merged()
        if len(rank) < k:
            return False
        bounds = [
            self.strategy.score_upper_bound(source_id, self.context)
            for source_id in pending_source_ids
        ]
        if not bounds:
            return True
        return rank[k - 1].score > max(bounds)


def _dedupe_and_sort(scored: list[MergedDocument]) -> list[MergedDocument]:
    best: dict[str, MergedDocument] = {}
    for merged in scored:
        existing = best.get(merged.linkage)
        if existing is None or merged.score > existing.score:
            best[merged.linkage] = merged
    ordered = list(best.values())
    ordered.sort(key=lambda merged: (-merged.score, merged.linkage))
    return ordered


class RawScoreMerge(MergeStrategy):
    """Baseline: trust the raw scores across engines (incorrectly)."""

    name = "raw-score"
    stable_scores = True

    def score(self, source_id, document, results, context) -> float:
        return document.raw_score

    def score_upper_bound(self, source_id, context) -> float:
        metadata = context.metadata.get(source_id)
        if metadata is None:
            return math.inf
        _, high = metadata.score_range
        return high if math.isfinite(high) else math.inf


class NormalizedScoreMerge(MergeStrategy):
    """Min-max normalize each score by the source's ScoreRange.

    Infinite bounds (allowed by the protocol) fall back to the largest
    raw score observed in that source's result, which is the best a
    client can do with an unbounded engine.
    """

    name = "range-normalized"
    stable_scores = True

    def score_upper_bound(self, source_id, context) -> float:
        return 1.0

    def score(self, source_id, document, results, context) -> float:
        metadata = context.metadata.get(source_id)
        low, high = metadata.score_range if metadata else (0.0, 1.0)
        if math.isinf(high) or high <= low:
            observed = [doc.raw_score for doc in results[source_id].documents]
            high = max(observed) if observed else 1.0
            low = 0.0
        if high <= low:
            return 0.0
        return (document.raw_score - low) / (high - low)


class TermFrequencyMerge(MergeStrategy):
    """Example 9: discard scores, rank by total query-term occurrences."""

    name = "term-frequency"
    stable_scores = True

    def score(self, source_id, document, results, context) -> float:
        return float(sum(stats.term_frequency for stats in document.term_stats))


class TfIdfRecomputeMerge(MergeStrategy):
    """Recompute tf·idf with globally aggregated document frequencies.

    For each query term: global df = Σ over sources of the source-local
    df (from content summaries, falling back to the TermStats df); the
    global collection size N = Σ NumDocs.  A document's score is
    Σ (tf / doc_count) · log(1 + N / df) — length-normalized tf times
    global idf, i.e. the "single large collection" view of §4.2.
    """

    name = "tfidf-recompute"

    def score(self, source_id, document, results, context) -> float:
        total_docs = sum(
            summary.num_docs for summary in context.summaries.values()
        )
        if total_docs <= 0:
            total_docs = sum(len(r.documents) for r in results.values()) or 1
        score = 0.0
        doc_length = max(document.doc_count, 1)
        for stats in document.term_stats:
            if stats.term_frequency <= 0:
                continue
            word = stats.term.lstring.text
            global_df = 0
            for summary in context.summaries.values():
                global_df += summary.document_frequency(word)
            if global_df == 0:
                global_df = max(stats.document_frequency, 1)
            idf = math.log(1.0 + total_docs / global_df)
            score += (stats.term_frequency / doc_length) * idf
        return score


class CoriMerge(MergeStrategy):
    """CORI result merging: normalized doc score × source belief.

    ``final = D · (1 + 0.4 · C) / 1.4`` with D the range-normalized
    document score and C the source's CORI belief normalized over the
    queried sources — the classic heuristic of ref [5].
    """

    name = "cori-weighted"

    def __init__(self) -> None:
        self._normalizer = NormalizedScoreMerge()

    def merge(self, results, context) -> list[MergedDocument]:
        beliefs = self._source_beliefs(results, context)
        scored: list[MergedDocument] = []
        for source_id in sorted(results):
            belief = beliefs.get(source_id, 0.0)
            for document in results[source_id].documents:
                normalized = self._normalizer.score(
                    source_id, document, results, context
                )
                score = normalized * (1.0 + 0.4 * belief) / 1.4
                scored.append(
                    MergedDocument(document.linkage, score, source_id, document)
                )
        return _dedupe_and_sort(scored)

    def _source_beliefs(self, results, context) -> dict[str, float]:
        summaries = {
            source_id: summary
            for source_id, summary in context.summaries.items()
            if source_id in results
        }
        if not summaries or not context.query_terms:
            return {source_id: 1.0 for source_id in results}
        ranked = Cori().rank(context.query_terms, summaries)
        if not ranked:
            return {source_id: 1.0 for source_id in results}
        top = max(goodness for _, goodness in ranked) or 1.0
        return {source_id: goodness / top for source_id, goodness in ranked}

    def score(self, source_id, document, results, context) -> float:
        raise NotImplementedError("CoriMerge overrides merge()")


class RoundRobinMerge(MergeStrategy):
    """Collection fusion baseline: interleave per-source ranks.

    The i-th document of each source gets score ``1 / (i + 1)``; ties
    across sources at the same depth break alphabetically.  Uses no
    score information at all — the floor any merge should beat.
    """

    name = "round-robin"
    stable_scores = True

    def score_upper_bound(self, source_id, context) -> float:
        return 1.0

    def merge(self, results, context) -> list[MergedDocument]:
        scored: list[MergedDocument] = []
        for source_id in sorted(results):
            for position, document in enumerate(results[source_id].documents):
                scored.append(
                    MergedDocument(
                        document.linkage,
                        1.0 / (position + 1),
                        source_id,
                        document,
                    )
                )
        return _dedupe_and_sort(scored)

    def score(self, source_id, document, results, context) -> float:
        raise NotImplementedError("RoundRobinMerge overrides merge()")


class CalibratedMerge(MergeStrategy):
    """§4.2 black-box calibration from SampleDatabaseResults.

    Each raw score is divided by the source's best score over the fixed
    sample collection — an empirical scale factor that needs neither
    TermStats nor ScoreRange, only the published sample results.
    """

    name = "sample-calibrated"
    stable_scores = True

    def score(self, source_id, document, results, context) -> float:
        sample = context.samples.get(source_id)
        if sample is None:
            return document.raw_score
        top_scores = sample.all_scores()
        scale = max(top_scores) if top_scores else 0.0
        if scale <= 0:
            return document.raw_score
        return document.raw_score / scale


#: The old classes by strategy name, as ``MERGE_STRATEGIES`` keys them.
ORACLE_STRATEGIES: dict[str, type[MergeStrategy]] = {
    cls.name: cls
    for cls in (
        RawScoreMerge,
        NormalizedScoreMerge,
        TermFrequencyMerge,
        TfIdfRecomputeMerge,
        CoriMerge,
        RoundRobinMerge,
        CalibratedMerge,
    )
}
