"""Rank merging (§3.2, §4.2; refs [5, 6]).

Merging per-source ranked results is the hardest metasearch task: raw
scores are incomparable across engines (one engine's 0.3 can beat
another's 1,000), and even a shared algorithm scores differently on
different collections.  STARTS does not prescribe a merge — it supplies
the "raw material": unnormalized scores, ``ScoreRange``,
``RankingAlgorithmID``, per-term statistics, document size/count, and
black-box sample results.  Each strategy below consumes a different
slice of that material, so experiment E2 can show what each piece buys:

* :class:`RawScoreMerge` — the naive baseline (what a metasearcher
  without STARTS is reduced to);
* :class:`NormalizedScoreMerge` — min-max normalization by the exported
  ``ScoreRange``;
* :class:`TermFrequencyMerge` — Example 9's "simple-minded" scheme:
  ignore scores, re-rank by term counts;
* :class:`TfIdfRecomputeMerge` — recompute a tf·idf score from
  ``TermStats`` with *global* document frequencies aggregated across
  sources ("more sophisticated schemes could also use the document
  frequencies");
* :class:`CoriMerge` — CORI-style result merging (ref [5]): normalized
  document scores weighted by the source's selection belief;
* :class:`RoundRobinMerge` — collection-fusion interleaving (ref [6]);
* :class:`CalibratedMerge` — §4.2's black-box calibration from the
  ``SampleDatabaseResults``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from repro.metasearch.selection import Cori
from repro.source.sample import SampleResults
from repro.starts.metadata import SContentSummary, SMetaAttributes
from repro.starts.results import SQRDocument, SQResults

__all__ = [
    "MergeContext",
    "MergedDocument",
    "MergeStrategy",
    "StreamingMerge",
    "RawScoreMerge",
    "NormalizedScoreMerge",
    "TermFrequencyMerge",
    "TfIdfRecomputeMerge",
    "CoriMerge",
    "RoundRobinMerge",
    "CalibratedMerge",
    "MERGE_STRATEGIES",
]


@dataclass
class MergeContext:
    """The STARTS raw material available at merge time."""

    metadata: dict[str, SMetaAttributes] = dataclass_field(default_factory=dict)
    summaries: dict[str, SContentSummary] = dataclass_field(default_factory=dict)
    samples: dict[str, SampleResults] = dataclass_field(default_factory=dict)
    query_terms: tuple[str, ...] = ()

    def restricted_to(self, source_ids) -> "MergeContext":
        """This context narrowed to ``source_ids`` (any container).

        A merge must see only the sources that actually answered —
        tf·idf's global document frequencies and CORI's beliefs are
        computed over exactly that set — so the batch merge and the
        streaming accumulator both narrow the candidates' context here.
        """

        def kept(entries: dict) -> dict:
            return {key: value for key, value in entries.items() if key in source_ids}

        return MergeContext(
            kept(self.metadata),
            kept(self.summaries),
            kept(self.samples),
            self.query_terms,
        )


@dataclass(frozen=True)
class MergedDocument:
    """One document in the merged rank."""

    linkage: str
    score: float
    source_id: str
    document: SQRDocument


class MergeStrategy:
    """Interface: per-source results → one merged, deduplicated rank.

    A strategy is two steps, and batch :meth:`merge` and the
    :class:`StreamingMerge` accumulator are nothing but those two:

    * :meth:`prepare` — *per source*, run once per source: reads only
      that source's results and its own slice of the context and keeps
      everything no later arrival can change.
    * :meth:`combine` — *across sources*, run once per merged rank:
      computes whatever depends on *which* sources answered and folds
      it over the prepared parts.
    """

    name = "base"
    #: True when a document's merged score depends only on its *own*
    #: source's results and context slice, never on which other sources
    #: answered (as CORI's belief normalization and tf·idf's global
    #: document frequencies do).  Only :meth:`StreamingMerge.is_stable_top_k`
    #: consults it: sound early termination needs scores that cannot move.
    stable_scores = False

    def merge(
        self, results: dict[str, SQResults], context: MergeContext
    ) -> list[MergedDocument]:
        """Merged rank, best first; duplicates collapse to the best copy."""
        prepared = {
            source_id: self.prepare(source_id, results[source_id], context)
            for source_id in sorted(results)
        }
        return self.combine(prepared, context)

    def prepare(self, source_id: str, results: SQResults, context: MergeContext):
        """One entry per document of ``source_id``, in the source's order.

        Stable strategies return finished :class:`MergedDocument` s; the
        others return whatever their :meth:`combine` folds into one.
        """
        raise NotImplementedError

    def combine(
        self, prepared: dict[str, list], context: MergeContext
    ) -> list[MergedDocument]:
        """The rank over ``prepared`` (source id → :meth:`prepare` output,
        in source-id order); ``context`` is narrowed to those sources."""
        return _dedupe_and_sort(
            [merged for part in prepared.values() for merged in part]
        )

    def score_upper_bound(self, source_id: str, context: MergeContext) -> float:
        """Largest merged score any document from ``source_id`` can get.

        ``inf`` (the default) means "no useful bound" — early
        termination then never fires for this strategy.  Bounds assume
        sources honor their advertised metadata (e.g. ``ScoreRange``),
        the same trust every strategy already places in it.
        """
        return math.inf


class StreamingMerge:
    """Incremental rank-merge: feed sources one at a time, read the rank.

    :meth:`feed` runs the strategy's per-source step — each document is
    scored (or taken apart) once per search, on arrival — and
    :meth:`merged` the cross-source step over the parts held so far, in
    source-id order, under the same :meth:`MergeContext.restricted_to`
    narrowing the batch path uses.  That is :meth:`MergeStrategy.merge`
    by definition, so the rank equals the batch merge of the fed sources.
    """

    def __init__(self, strategy: MergeStrategy, context: MergeContext) -> None:
        self.strategy = strategy
        self.context = context
        self._prepared: dict[str, list] = {}
        self._rank: list[MergedDocument] | None = []  # None: stale

    def feed(self, source_id: str, results: SQResults) -> None:
        """Add one source's results (at most once per source)."""
        if source_id in self._prepared:
            raise ValueError(f"source {source_id!r} already fed")
        prepared = self.strategy.prepare(source_id, results, self.context)
        self._prepared[source_id] = prepared
        self._rank = None

    def merged(self) -> list[MergedDocument]:
        """The merged rank over every source fed so far, best first."""
        if self._rank is None:
            prepared = dict(sorted(self._prepared.items()))
            narrowed = self.context.restricted_to(prepared)
            self._rank = self.strategy.combine(prepared, narrowed)
        return self._rank

    def current_top_k(self, k: int | None = None) -> list[MergedDocument]:
        """The best ``k`` of :meth:`merged` (all of it for a falsy ``k``)."""
        return self.merged()[: k or None]

    def is_stable_top_k(self, k: int, pending_source_ids) -> bool:
        """Can no pending source change the top ``k`` of the rank?

        Requires a stable-score strategy, ``k`` documents already
        merged, and the k-th score *strictly* above every pending
        source's score upper bound: at equal scores the ``(score,
        linkage)`` tie-break could still reorder, and a duplicate
        arriving at exactly the bound could not raise any held score
        past one strictly above it.
        """
        rank = self.merged()
        if not self.strategy.stable_scores or len(rank) < k:
            return False
        return all(
            rank[k - 1].score > self.strategy.score_upper_bound(source_id, self.context)
            for source_id in pending_source_ids
        )


def _dedupe_and_sort(scored: list[MergedDocument]) -> list[MergedDocument]:
    best: dict[str, MergedDocument] = {}
    for merged in scored:
        existing = best.get(merged.linkage)
        if existing is None or merged.score > existing.score:
            best[merged.linkage] = merged
    ordered = list(best.values())
    ordered.sort(key=lambda merged: (-merged.score, merged.linkage))
    return ordered


def _finished(source_id: str, results: SQResults, score) -> list[MergedDocument]:
    """A stable strategy's per-source step: ``score(document)`` is final."""
    return [
        MergedDocument(document.linkage, score(document), source_id, document)
        for document in results.documents
    ]


class RawScoreMerge(MergeStrategy):
    """Baseline: trust the raw scores across engines (incorrectly)."""

    name = "raw-score"
    stable_scores = True

    def prepare(self, source_id, results, context) -> list[MergedDocument]:
        return _finished(source_id, results, lambda document: document.raw_score)

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

    def prepare(self, source_id, results, context) -> list[MergedDocument]:
        metadata = context.metadata.get(source_id)
        low, high = metadata.score_range if metadata else (0.0, 1.0)
        if math.isinf(high) or high <= low:
            observed = (document.raw_score for document in results.documents)
            low, high = 0.0, max(observed, default=1.0)
        if high <= low:
            return _finished(source_id, results, lambda document: 0.0)
        return _finished(
            source_id, results, lambda doc: (doc.raw_score - low) / (high - low)
        )


class TermFrequencyMerge(MergeStrategy):
    """Example 9: discard scores, rank by total query-term occurrences."""

    name = "term-frequency"
    stable_scores = True

    def prepare(self, source_id, results, context) -> list[MergedDocument]:
        def total_tf(document: SQRDocument) -> float:
            return float(sum(stats.term_frequency for stats in document.term_stats))

        return _finished(source_id, results, total_tf)


class TfIdfRecomputeMerge(MergeStrategy):
    """Recompute tf·idf with globally aggregated document frequencies.

    For each query term: global df = Σ over sources of the source-local
    df (from content summaries, falling back to the TermStats df); the
    global collection size N = Σ NumDocs.  A document's score is
    Σ (tf / doc_count) · log(1 + N / df) — length-normalized tf times
    global idf, i.e. the "single large collection" view of §4.2.

    A line's length-normalized tf is fixed once its source answers
    (:meth:`prepare`); N and the idfs depend on who answered, so
    :meth:`combine` derives them per rank, one idf per distinct word.
    """

    name = "tfidf-recompute"

    def prepare(self, source_id, results, context) -> list:
        """Per document, its ``(tf / doc length, word, TermStats df)``
        triples, in ``TermStats`` order, for the lines with ``tf > 0``."""
        return [
            (
                document,
                [
                    (
                        stats.term_frequency / max(document.doc_count, 1),
                        stats.term.lstring.text,
                        stats.document_frequency,
                    )
                    for stats in document.term_stats
                    if stats.term_frequency > 0
                ],
            )
            for document in results.documents
        ]

    def combine(self, prepared, context) -> list[MergedDocument]:
        summaries = list(context.summaries.values())
        total_docs = sum(summary.num_docs for summary in summaries)
        if total_docs <= 0:
            total_docs = sum(len(part) for part in prepared.values()) or 1
        idfs: dict[str, float] = {}  # per word some summary knows
        scored: list[MergedDocument] = []
        for source_id, part in prepared.items():
            for document, lines in part:
                score = 0.0
                for weight, word, local_df in lines:
                    idf = idfs.get(word)
                    if idf is None:
                        df = sum(known.document_frequency(word) for known in summaries)
                        idf = math.log(1.0 + total_docs / (df or max(local_df, 1)))
                        if df:  # else the line's own df stands in: not shared
                            idfs[word] = idf
                    score += weight * idf
                scored.append(
                    MergedDocument(document.linkage, score, source_id, document)
                )
        return _dedupe_and_sort(scored)


class CoriMerge(MergeStrategy):
    """CORI result merging: normalized doc score × source belief.

    ``final = D · (1 + 0.4 · C) / 1.4`` with D the range-normalized
    document score and C the source's CORI belief normalized over the
    queried sources — the classic heuristic of ref [5].  D is fixed per
    source (:meth:`prepare`); C is :meth:`combine`'s to recompute.
    """

    name = "cori-weighted"
    prepare = NormalizedScoreMerge.prepare  # D, exactly as that strategy scores

    def combine(self, prepared, context) -> list[MergedDocument]:
        beliefs = self._source_beliefs(prepared, context)
        scored: list[MergedDocument] = []
        for source_id, part in prepared.items():
            weight = 1.0 + 0.4 * beliefs.get(source_id, 0.0)
            scored.extend(
                MergedDocument(
                    held.linkage, held.score * weight / 1.4, source_id, held.document
                )
                for held in part
            )
        return _dedupe_and_sort(scored)

    def _source_beliefs(self, answered, context) -> dict[str, float]:
        summaries = {
            source_id: summary
            for source_id, summary in context.summaries.items()
            if source_id in answered
        }
        rankable = summaries and context.query_terms
        ranked = Cori().rank(context.query_terms, summaries) if rankable else []
        if not ranked:
            return {source_id: 1.0 for source_id in answered}
        top = max(goodness for _, goodness in ranked) or 1.0
        return {source_id: goodness / top for source_id, goodness in ranked}


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

    def prepare(self, source_id, results, context) -> list[MergedDocument]:
        return [
            MergedDocument(document.linkage, 1.0 / (position + 1), source_id, document)
            for position, document in enumerate(results.documents)
        ]


class CalibratedMerge(MergeStrategy):
    """§4.2 black-box calibration from SampleDatabaseResults.

    Each raw score is divided by the source's best score over the fixed
    sample collection — an empirical scale factor that needs neither
    TermStats nor ScoreRange, only the published sample results.
    """

    name = "sample-calibrated"
    stable_scores = True

    def prepare(self, source_id, results, context) -> list[MergedDocument]:
        sample = context.samples.get(source_id)
        scale = max(sample.all_scores(), default=0.0) if sample is not None else 0.0
        if scale <= 0:
            return _finished(source_id, results, lambda document: document.raw_score)
        return _finished(source_id, results, lambda doc: doc.raw_score / scale)


#: Registry used by experiments to sweep every strategy.
MERGE_STRATEGIES: dict[str, type[MergeStrategy]] = {
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
