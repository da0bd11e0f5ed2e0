"""The search engine: indexing, Boolean filtering, vector-space ranking.

This is the engine a STARTS source wraps.  It supports the full Basic-1
operator set for filter expressions (``and``, ``or``, ``and-not``,
``prox``), fuzzy-logic interpretation of Boolean operators inside
ranking expressions (Example 4 of the paper: ``and`` as min, ``or`` as
max), per-term query weights (Example 5), and — crucially for rank
merging — returns with every hit the statistics STARTS requires:
term frequency, the engine's own term weight, document frequency,
document size and token count.
"""

from __future__ import annotations

import pathlib
import time
from collections import defaultdict

from repro.engine import fields as F
from repro.engine.documents import Document, DocumentStore
from repro.engine.evaluation import (
    EVALUATION_MODES,
    PRUNED,
    EngineHit,
    QueryTermContext,
    TermHitStats,
    top_k_hits,
)
from repro.engine.index import InvertedIndex
from repro.engine.matching import TermMatcher
from repro.engine.pruning import PrunedContext, supports_pruning
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
from repro.engine.ranking import CosineTfIdf, RankingAlgorithm
from repro.observability.metrics import get_registry
from repro.storage import SegmentStore, StorageError, TieredMergePolicy
from repro.text.analysis import Analyzer

__all__ = ["TermHitStats", "EngineHit", "SearchEngine"]


class SearchEngine:
    """A complete single-collection engine.

    Args:
        analyzer: the tokenize/stop/stem pipeline (defines the engine's
            observable query model).
        ranking: the scoring algorithm, or None for a Boolean-only
            engine like Glimpse (``QueryPartsSupported: F``).
        evaluation: ``"pruned"`` (the default and the production path:
            rank-safe MaxScore / block-max top-k evaluation that never
            visits postings which provably cannot reach the kth score,
            falling back to term-at-a-time for query shapes it cannot
            bound) or ``"term_at_a_time"`` (that exhaustive fallback
            alone — the in-``src/`` reference of the pruning suites).
            The parameter survives only because
            ``benchmarks/suite/worlds.py`` passes ``evaluation=PRUNED``;
            nothing else should set it.
        storage: ``"segments"`` with a ``storage_dir``, ``"memory"``
            without one; it decides nothing and is only checked.  It
            survives only because ``benchmarks/suite/worlds.py`` passes
            ``storage="segments"``; nothing else should set it.
        storage_dir: the :class:`SegmentStore` directory.  The engine's
            index and document store are always the store's committed
            segments plus a mutable tail of the same columns, which
            :meth:`flush` writes as a new segment.  Without a directory
            nothing is ever committed: the tail is the whole engine.
            Opening an existing store warms the engine from its segments
            without re-indexing anything.
        merge_policy: tiered merge policy for the segment store.
    """

    def __init__(
        self,
        analyzer: Analyzer | None = None,
        ranking: RankingAlgorithm | None = CosineTfIdf(),
        evaluation: str = PRUNED,
        storage: str | None = None,
        storage_dir: str | pathlib.Path | None = None,
        merge_policy: TieredMergePolicy | None = None,
    ) -> None:
        if evaluation not in EVALUATION_MODES:
            raise ValueError(
                f"unknown evaluation mode: {evaluation!r} (expected one of "
                f"{', '.join(EVALUATION_MODES)})"
            )
        if storage not in (None, "memory" if storage_dir is None else "segments"):
            raise ValueError(
                f"storage mode {storage!r} does not match storage_dir="
                f"{storage_dir!r}: 'segments' takes a storage_dir, 'memory' none"
            )
        self.analyzer = analyzer or Analyzer()
        self.ranking = ranking
        self.evaluation = evaluation
        self.storage_dir = (
            pathlib.Path(storage_dir) if storage_dir is not None else None
        )
        self._open(
            SegmentStore(
                self.storage_dir,
                analyzer=self.analyzer.signature(),
                ranking=ranking.algorithm_id if ranking is not None else None,
                merge_policy=merge_policy,
            )
        )

    def _open(self, segment_store: SegmentStore) -> None:
        """Sit the index and the document store over ``segment_store``:
        its committed segments plus an empty tail above them."""
        self.segment_store = segment_store
        self.store = DocumentStore(segment_store)
        self.index = InvertedIndex(segment_store)
        self.matcher = TermMatcher(self.index, self.analyzer)

    # -- indexing ---------------------------------------------------------

    def add(self, document: Document) -> int:
        """Index one document; returns its dense id."""
        fields: list[tuple[str, list[tuple[str, str, int]]]] = []
        for field_name, value in document.text_fields():
            analyzed = self.analyzer.analyze(
                value,
                document.language,
                drop_stop_words=not self.analyzer.index_stop_words,
            )
            tokens = [(token.term, token.surface, token.position) for token in analyzed]
            fields.append((field_name, tokens))
        doc_id = self.store.add(document, sum(len(tokens) for _, tokens in fields))
        for field_name, tokens in fields:
            self.index.add_field_tokens(
                doc_id, field_name, tokens, language=document.language
            )
        return doc_id

    def add_all(self, documents: list[Document]) -> list[int]:
        return [self.add(document) for document in documents]

    def remove(self, linkage: str) -> bool:
        """Remove the document with this URL; returns False if absent.

        Removal compacts: the surviving documents are re-indexed into a
        fresh tail, so every statistic (df, summaries, token counts) is
        exact afterwards.  Document ids are reassigned — callers must
        not hold ids across a removal (linkages are the stable
        identity, as everywhere in STARTS).  With a ``storage_dir`` the
        survivors are committed before this returns: one manifest swap
        replaces every segment and tombstone with them.
        """
        if self.store.by_linkage(linkage) is None:
            return False
        survivors = [
            document for document in self.store if document.linkage != linkage
        ]
        self._rebuild(survivors)
        return True

    def replace(self, document: Document) -> int:
        """Replace (or add) the document with ``document.linkage``."""
        self.remove(document.linkage)
        return self.add(document)

    def tombstone(self, linkage: str) -> bool:
        """Delete by tombstone instead of rebuilding (needs a ``storage_dir``).

        The document stops matching queries immediately and its bytes
        are reclaimed by the next merge covering its segment.  Unlike
        :meth:`remove`, doc ids stay stable and summary statistics
        keep the deleted document's contribution until a rebuild —
        the standard log-structured-store approximation.  The tail is
        flushed first so the target is always in a segment.
        """
        if self.storage_dir is None:
            raise StorageError(
                "tombstone() needs a storage_dir: this engine has no segments"
            )
        doc_id = self.store.by_linkage(linkage)
        if doc_id is None:
            return False
        self.flush()
        self.segment_store.add_tombstones([doc_id])
        self.store.note_tombstones([doc_id])
        return True

    def _rebuild(self, documents: list[Document]) -> None:
        committed = self.segment_store
        # Over a store with no directory the documents take ids from 0.
        self._open(SegmentStore())
        self.add_all(documents)
        if self.storage_dir is not None:
            # The tail holds the columns a flush writes.
            committed.replace_all(
                self.store.tail_rows(),
                self.index.segment_columns(),
                self.index.summary_sections(),
            )
            self._open(committed)

    # -- segment lifecycle -------------------------------------------------

    def flush(self) -> bool:
        """Commit the mutable tail as one immutable segment.

        Returns whether anything was flushed.  A no-op (and False) for
        an engine with no ``storage_dir`` and when the tail is empty.
        """
        if self.storage_dir is None:
            return False
        rows = self.store.tail_rows()
        if not rows:
            return False
        self.index.commit_tail(rows)
        self.store.absorb_flush()
        return True

    def checkpoint(self, merge: bool = False) -> pathlib.Path:
        """Flush (and optionally compact); returns the manifest path.

        After a checkpoint every indexed document is on disk under a
        committed manifest — a new engine opened on ``storage_dir``
        serves the same answers without re-indexing.
        """
        if self.storage_dir is None:
            raise StorageError(
                "checkpoint() needs a storage_dir: this engine has no segments"
            )
        self.flush()
        if merge:
            self.segment_store.merge_all()
        return self.segment_store.manifest_path()

    def maybe_merge(self, executor: object | None = None) -> bool:
        """Run (or schedule, given an executor) due segment merges."""
        return self.segment_store.maybe_merge(executor)

    def close(self) -> None:
        """Release segment mmaps."""
        self.segment_store.close()

    @property
    def document_count(self) -> int:
        return len(self.store)

    # -- filter (Boolean) evaluation ---------------------------------------

    def evaluate_filter(self, query: EngineQuery) -> set[int]:
        """The set of document ids satisfying a Boolean filter."""
        if isinstance(query, TermQuery):
            return self._term_docs(query)
        if isinstance(query, BooleanQuery):
            child_sets = [self.evaluate_filter(child) for child in query.children]
            if query.operator == AND:
                result = child_sets[0]
                for child_set in child_sets[1:]:
                    result = result & child_set
                return result
            if query.operator == OR:
                result = set()
                for child_set in child_sets:
                    result |= child_set
                return result
            if query.operator == AND_NOT:
                return child_sets[0] - child_sets[1]
        if isinstance(query, ProxQuery):
            return self._prox_docs(query)
        if isinstance(query, ListQuery):
            # A list in filter position behaves as OR (every query must
            # keep a positive component).
            result: set[int] = set()
            for child in query.children:
                result |= self.evaluate_filter(child)
            return result
        raise TypeError(f"cannot evaluate filter node: {type(query).__name__}")

    def _term_docs(self, term: TermQuery) -> set[int]:
        comparison = term.comparison()
        if comparison and term.field in F.DATE_FIELDS:
            return self._date_comparison_docs(term, comparison)
        if term.field in F.METADATA_FIELDS:
            return self._metadata_field_docs(term)
        docs: set[int] = set()
        for field_name, index_terms in self.matcher.expand(term).items():
            for index_term in index_terms:
                postings = self.index.pruned_postings(field_name, index_term)
                docs.update(postings.columns()[0])
        return docs

    def _metadata_field_docs(self, term: TermQuery) -> set[int]:
        """Exact whitespace-token match over metadata-valued fields.

        ``(languages "es")`` matches documents whose ``languages`` value
        lists ``es``; ``(linkage "http://...")`` matches the document
        with that URL.  Matching is case-insensitive.
        """
        wanted = term.text.lower()
        matched: set[int] = set()
        for doc_id in self.store.ids():
            document = self.store[doc_id]
            if term.field == F.LINKAGE:
                value = document.linkage
            else:
                value = document.get(term.field)
            if not value and term.field == F.LANGUAGES:
                value = document.language
            if not value:
                continue
            tokens = {token.lower() for token in value.split()}
            if wanted in tokens:
                matched.add(doc_id)
        return matched

    def _date_comparison_docs(self, term: TermQuery, comparison: str) -> set[int]:
        """Evaluate <, <=, =, >=, >, != against the ISO date field."""
        wanted = term.text
        matched: set[int] = set()
        for doc_id in self.store.ids():
            value = self.store[doc_id].get(term.field)
            if not value:
                continue
            # ISO dates compare correctly as strings.
            keep = {
                "<": value < wanted,
                "<=": value <= wanted,
                "=": value == wanted,
                ">=": value >= wanted,
                ">": value > wanted,
                "!=": value != wanted,
            }[comparison]
            if keep:
                matched.add(doc_id)
        return matched

    def _prox_docs(self, query: ProxQuery) -> set[int]:
        """Documents where the two terms satisfy the proximity constraint.

        ``prox[d, ordered]`` matches when the terms appear in the same
        field with at most ``d`` words in between; if ordered, left
        must precede right (Example 3).
        """
        left_matches = self.matcher.expand(query.left)
        right_matches = self.matcher.expand(query.right)
        matched: set[int] = set()
        for field_name in set(left_matches) & set(right_matches):
            left_positions = self._positions_by_doc(field_name, left_matches[field_name])
            right_positions = self._positions_by_doc(field_name, right_matches[field_name])
            for doc_id in set(left_positions) & set(right_positions):
                if self._prox_satisfied(
                    left_positions[doc_id],
                    right_positions[doc_id],
                    query.distance,
                    query.ordered,
                ):
                    matched.add(doc_id)
        return matched

    def _positions_by_doc(
        self, field_name: str, index_terms: set[str]
    ) -> dict[int, list[int]]:
        positions: dict[int, list[int]] = defaultdict(list)
        for index_term in index_terms:
            postings = self.index.pruned_postings(field_name, index_term)
            doc_ids, tfs, flat = postings.positions()
            start = 0
            for doc_id, tf in zip(doc_ids, tfs):
                positions[doc_id].extend(flat[start : start + tf])
                start += tf
        return {doc_id: sorted(plist) for doc_id, plist in positions.items()}

    @staticmethod
    def _prox_satisfied(
        left: list[int], right: list[int], distance: int, ordered: bool
    ) -> bool:
        # Two-pointer merge over the sorted position lists: whenever any
        # pair satisfies the constraint, so does a pair of cross-list
        # neighbours, and the merge visits every such neighbour pair.
        i = j = 0
        n_left, n_right = len(left), len(right)
        while i < n_left and j < n_right:
            p_left, p_right = left[i], right[j]
            if p_left < p_right:
                if p_right - p_left - 1 <= distance:
                    return True
                i += 1
            elif p_right < p_left:
                if not ordered and p_left - p_right - 1 <= distance:
                    return True
                j += 1
            else:
                # Equal positions never pair with each other; the
                # candidates are this value against the next strictly
                # greater position on each side, then both equal runs
                # are consumed.
                nxt = j
                while nxt < n_right and right[nxt] == p_left:
                    nxt += 1
                if nxt < n_right and right[nxt] - p_left - 1 <= distance:
                    return True
                if not ordered:
                    nxt = i
                    while nxt < n_left and left[nxt] == p_right:
                        nxt += 1
                    if nxt < n_left and left[nxt] - p_right - 1 <= distance:
                        return True
                while i < n_left and left[i] == p_left:
                    i += 1
                while j < n_right and right[j] == p_right:
                    j += 1
        return False

    # -- the combined search entry point -------------------------------------

    def search(
        self,
        filter_query: EngineQuery | None = None,
        ranking_query: EngineQuery | None = None,
        *,
        top_k: int | None = None,
        min_score: float = 0.0,
    ) -> list[EngineHit]:
        """Run a STARTS-style query: Boolean filter + vector-space rank.

        Per Section 4.1.1: with no filter, all documents qualify and are
        ranked; with no ranking expression, the result is the filter's
        document set (scores 0.0).  Hits are sorted by descending score,
        then ascending doc id for determinism, and each carries the
        TermStats for the ranking expression's terms.

        Args:
            filter_query: the Boolean filter expression, or None.
            ranking_query: the ranking expression, or None.
            top_k: keep only the first ``top_k`` hits of the final
                order (heap-selected, so the tail is never materialized
                and never gets TermStats).  Callers must only pass this
                when they want score-descending truncation — i.e. when
                the answer specification sorts by score.
            min_score: drop ranked hits scoring below this (the answer
                specification's ``MinDocumentScore``); applied before
                ``top_k``, which commutes with it.
        """
        started = time.perf_counter()
        hits, walked, truncated, skipped, blocks_skipped = self._search_timed(
            filter_query, ranking_query, top_k=top_k, min_score=min_score
        )
        registry = get_registry()
        registry.histogram(
            "engine_query_eval_ms",
            "Wall-clock time of one engine search (filter + rank + top-k).",
        ).observe((time.perf_counter() - started) * 1000.0)
        if walked:
            registry.counter(
                "engine_postings_walked_total",
                "Postings visited materializing ranking statistics.",
            ).inc(walked)
        if skipped:
            registry.counter(
                "engine_postings_skipped_total",
                "Postings the pruned evaluator never visited.",
            ).inc(skipped)
        if blocks_skipped:
            registry.counter(
                "engine_blocks_skipped_total",
                "Candidate probes resolved by the block-max column alone.",
            ).inc(blocks_skipped)
        if truncated:
            # On the pruned path this is a conservative signal (a pruned
            # document might not have qualified), but any pruning means
            # the top-k bound did shape the evaluation.
            registry.counter(
                "engine_topk_truncations_total",
                "Searches whose hit list was cut by the top-k bound.",
            ).inc()
        return hits

    def _search_timed(
        self,
        filter_query: EngineQuery | None,
        ranking_query: EngineQuery | None,
        *,
        top_k: int | None,
        min_score: float,
    ) -> tuple[list[EngineHit], int, bool, int, int]:
        """``search`` proper.

        Returns ``(hits, postings walked, truncated, postings skipped,
        blocks skipped)`` — the last two are only non-zero when the
        pruned driver ran.  ``top_k=0`` (``MaxNumberDocuments 0``)
        evaluates nothing.
        """
        if top_k == 0 or (filter_query is None and ranking_query is None):
            return [], 0, False, 0, 0

        candidates: set[int] | None = None
        if filter_query is not None:
            candidates = self.evaluate_filter(filter_query)
            if not candidates:
                return [], 0, False, 0, 0

        if ranking_query is None or self.ranking is None:
            if candidates is None:
                # A Boolean-only engine given only a ranking expression
                # has nothing it can evaluate.
                return [], 0, False, 0, 0
            hits = [EngineHit(doc_id, 0.0) for doc_id in sorted(candidates)]
            if ranking_query is not None and min_score > 0.0:
                hits = [hit for hit in hits if hit.score >= min_score]
            truncated = top_k is not None and len(hits) > top_k
            return (hits if top_k is None else hits[:top_k]), 0, truncated, 0, 0

        if (
            self.evaluation == PRUNED
            and candidates is None
            and supports_pruning(self.ranking, ranking_query, top_k, min_score)
        ):
            pruned = PrunedContext(
                self, ranking_query, top_k=top_k, min_score=min_score
            )
            hits = [
                EngineHit(doc_id, score, pruned.hit_term_stats(doc_id))
                for doc_id, score in pruned.hits()
            ]
            return (
                hits,
                pruned.postings_walked,
                pruned.truncated,
                pruned.postings_skipped,
                pruned.blocks_skipped,
            )

        # ``evaluation="pruned"`` lands here too for shapes the pruned
        # driver cannot evaluate rank-safely (filters, non-flat queries,
        # unprunable algorithms, no bound).
        context = QueryTermContext(self, ranking_query, candidates)
        scores = context.scores(min_score=min_score)
        if min_score > 0.0 and not context.applied_min_score:
            scores = {
                doc_id: score
                for doc_id, score in scores.items()
                if score >= min_score
            }
        hits = [
            EngineHit(doc_id, score, context.hit_term_stats(doc_id))
            for doc_id, score in top_k_hits(scores, top_k)
        ]
        truncated = top_k is not None and len(scores) > top_k
        return hits, context.postings_walked, truncated, 0, 0
