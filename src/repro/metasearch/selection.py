"""Source selection from content summaries (§3.3, refs [7, 8] — GlOSS).

Given a query and the content summaries harvested from every known
source, rank the sources by how promising they are.  Implemented
selectors:

* :class:`BGloss` — the Boolean GlOSS estimator of ref [7]: under a
  term-independence assumption, a source with N docs and per-term
  document frequencies df_t is estimated to hold
  ``N * prod(df_t / N)`` documents matching *all* query terms.
* :class:`VGlossSum` / :class:`VGlossMax` — vector-space GlOSS
  (ref [8]): goodness from aggregated term mass; Sum uses total
  postings, Max weights document frequency by average within-document
  tf.
* :class:`Cori` — the inference-network selector of ref [5] (CORI):
  a belief per term from a df-based T component and an ICF-based I
  component.
* Baselines: :class:`SelectAll`, :class:`RandomSelector`,
  :class:`BySize` — what a summary-less metasearcher could do.
* :class:`CostAware` — wraps any selector and discounts sources by
  their monetary cost/latency (the §3.3 motivation: some sources
  charge, some are slow).

All selectors are pure functions of the summaries: no document content
is touched, which is the protocol's whole point.

Every selector scores a
:class:`~repro.metasearch.summary_index.SummaryIndex` *sparsely*: only
sources containing at least one query term are visited, per-term
defaults (BGloss's zero product, CORI's 0.4 absent-term belief) are
folded in analytically for everyone else, BGloss intersects shards
rarest-first so zero products short-circuit, and
:meth:`~SourceSelector.select` keeps a bounded heap instead of sorting
the full ranking.  A plain ``dict[str, SContentSummary]`` argument is
indexed once on entry (:meth:`SummaryIndex.from_summaries`) and scored
the same way; callers that select repeatedly over the same summaries
build the index themselves, once.  The per-summary dict scan these
formulas started from is the oracle in
``tests/oracles/dense_selection.py``.  Every entry point feeds the
``selection_eval_ms`` histogram in the process metrics registry,
labelled by selector; a disabled registry turns those observations into
no-ops.
"""

from __future__ import annotations

import heapq
import math
import random
import time
import zlib
from collections.abc import Sequence

from repro.metasearch.summary_index import SummaryIndex
from repro.observability.metrics import get_registry
from repro.starts.metadata import SContentSummary

__all__ = [
    "SourceSelector",
    "BGloss",
    "VGlossSum",
    "VGlossMax",
    "Cori",
    "SelectAll",
    "RandomSelector",
    "BySize",
    "CostAware",
    "SELECTOR_REGISTRY",
    "order_key",
]

Summaries = dict[str, SContentSummary] | SummaryIndex


def order_key(pair: tuple[str, float]) -> tuple[float, str]:
    """The total order every ranking obeys: descending goodness, ties on id.

    Public because the broker root merges per-leaf candidate lists with
    the very same key — any other order would break bit-exactness with
    the flat ranking.
    """
    return (-pair[1], pair[0])


def _as_index(summaries: Summaries) -> SummaryIndex:
    if isinstance(summaries, SummaryIndex):
        return summaries
    return SummaryIndex.from_summaries(summaries)


def _observe_selection(selector: str, started: float) -> None:
    get_registry().histogram(
        "selection_eval_ms",
        "Wall-clock duration of one source-selection evaluation.",
        labels=("selector",),
    ).labels(selector=selector).observe((time.perf_counter() - started) * 1000.0)


class SourceSelector:
    """Interface: score every source for a query, best first."""

    name = "base"

    #: Whether per-source scores depend only on the source's own summary
    #: plus corpus-level statistics (source count, mean word mass,
    #: per-term collection frequencies).  Distributable selectors can be
    #: evaluated shard-by-shard in a broker hierarchy and merged into the
    #: exact flat ranking; selectors that need the whole id set at once
    #: (a global permutation, a cross-source discount) cannot.
    distributable = True

    #: Whether a shard containing none of the query terms can be skipped
    #: outright: every one of its sources then scores exactly
    #: :meth:`sparse_default`.  Only meaningful when ``distributable``.
    prunable = False

    # -- public entry points (timed) ---------------------------------------

    def rank(
        self,
        terms: Sequence[str],
        summaries: Summaries,
    ) -> list[tuple[str, float]]:
        """(source_id, goodness) sorted by descending goodness.

        Ties break on source id for determinism.
        """
        started = time.perf_counter()
        try:
            return self._rank(terms, _as_index(summaries))
        finally:
            _observe_selection(self.name, started)

    def select(
        self,
        terms: Sequence[str],
        summaries: Summaries,
        k: int,
    ) -> list[str]:
        """The ids of the top-k sources."""
        started = time.perf_counter()
        try:
            pool = self._candidates(terms, _as_index(summaries), k)
            return [
                source_id
                for source_id, _ in heapq.nsmallest(k, pool, key=order_key)
            ]
        finally:
            _observe_selection(self.name, started)

    def top_candidates(
        self,
        terms: Sequence[str],
        summaries: Summaries,
        k: int,
    ) -> list[tuple[str, float]]:
        """The top-k ``(source_id, goodness)`` pairs, best first.

        Exactly the pairs whose ids :meth:`select` returns, with the
        goodness riding along — what a leaf broker sends up so the root
        can merge per-shard candidate lists into the exact global top-k
        with :func:`order_key`.
        """
        started = time.perf_counter()
        try:
            pool = self._candidates(terms, _as_index(summaries), k)
            return heapq.nsmallest(k, pool, key=order_key)
        finally:
            _observe_selection(self.name, started)

    def sparse_default(self, terms: Sequence[str], n_sources: int) -> float:
        """The goodness of a source containing none of the query terms.

        Must equal the default half of :meth:`_sparse_scores` bit for
        bit: the broker root assigns it to every source of a leaf whose
        shards hold no query term, without descending into the leaf.
        """
        return 0.0

    # -- sparse scoring ----------------------------------------------------

    def _sparse_scores(
        self, terms: Sequence[str], index: SummaryIndex
    ) -> tuple[dict[int, float], float]:
        """``(ordinal → score, default score for everyone else)``."""
        raise NotImplementedError

    def _rank(
        self, terms: Sequence[str], index: SummaryIndex
    ) -> list[tuple[str, float]]:
        touched, default = self._sparse_scores(terms, index)
        scored = [
            (source_id, touched.get(ordinal, default))
            for source_id, ordinal in index.sorted_sources()
        ]
        scored.sort(key=order_key)
        return scored

    def _candidates(
        self, terms: Sequence[str], index: SummaryIndex, k: int
    ) -> list[tuple[str, float]]:
        """An unsorted pool whose k best pairs are the exact top-k.

        Sources outside the touched set all carry the same default
        score, so only the first k of them (in id order — exactly how
        their ties break) can possibly make the cut.
        """
        touched, default = self._sparse_scores(terms, index)
        pool = [
            (index.source_id(ordinal), goodness)
            for ordinal, goodness in touched.items()
        ]
        if len(touched) < len(index):
            filled = 0
            for source_id, ordinal in index.sorted_sources():
                if ordinal in touched:
                    continue
                pool.append((source_id, default))
                filled += 1
                if filled >= k:
                    break
        return pool


class BGloss(SourceSelector):
    """Boolean GlOSS: expected number of documents matching ALL terms."""

    name = "bGlOSS"
    prunable = True

    def _sparse_scores(
        self, terms: Sequence[str], index: SummaryIndex
    ) -> tuple[dict[int, float], float]:
        if not terms:
            # No conjuncts: the estimate is the document count itself.
            return (
                {
                    ordinal: float(n_docs)
                    for _, ordinal in index.sorted_sources()
                    if (n_docs := index.num_docs(ordinal)) > 0
                },
                0.0,
            )
        columns = [index.term_columns(term) for term in terms]
        # Rarest term first: the candidate set can only shrink, and a
        # term absent everywhere zeroes every product immediately.
        by_rarity = sorted(columns, key=len)
        if not len(by_rarity[0]):
            return {}, 0.0
        candidates = set(by_rarity[0].positions)
        for shard in by_rarity[1:]:
            positions = shard.positions
            candidates = {
                ordinal for ordinal in candidates if ordinal in positions
            }
            if not candidates:
                return {}, 0.0
        touched: dict[int, float] = {}
        for ordinal in candidates:
            n_docs = index.num_docs(ordinal)
            if n_docs <= 0:
                continue
            estimate = float(n_docs)
            for shard in columns:  # original term order: float-exact
                df = shard.document_frequencies[shard.positions[ordinal]]
                estimate *= df / n_docs
                if estimate == 0.0:
                    break
            if estimate != 0.0:
                touched[ordinal] = estimate
        return touched, 0.0


class VGlossSum(SourceSelector):
    """Vector-space GlOSS, Sum variant: total postings mass of the terms."""

    name = "vGlOSS-Sum"
    prunable = True

    def _sparse_scores(
        self, terms: Sequence[str], index: SummaryIndex
    ) -> tuple[dict[int, float], float]:
        totals: dict[int, int] = {}
        for term in terms:
            shard = index.term_columns(term)
            for ordinal, postings in zip(shard.ordinals, shard.postings):
                totals[ordinal] = totals.get(ordinal, 0) + postings
        return (
            {ordinal: float(total) for ordinal, total in totals.items()},
            0.0,
        )


class VGlossMax(SourceSelector):
    """Vector-space GlOSS, Max variant: df weighted by average tf.

    High when the source has many documents that each use the term
    heavily — a proxy for the maximum similarity any single document
    could achieve.
    """

    name = "vGlOSS-Max"
    prunable = True

    def _sparse_scores(
        self, terms: Sequence[str], index: SummaryIndex
    ) -> tuple[dict[int, float], float]:
        n_terms = len(terms)
        if not n_terms:
            return {}, 0.0
        # Gather each touched source's (df, postings) per query position
        # into a flat row, then accumulate in query-term order so the
        # float sums match the dense oracle bit for bit.
        rows: dict[int, list[int]] = {}
        for position, term in enumerate(terms):
            shard = index.term_columns(term)
            offset = 2 * position
            dfs, postings = shard.document_frequencies, shard.postings
            for slot, ordinal in enumerate(shard.ordinals):
                row = rows.get(ordinal)
                if row is None:
                    row = rows[ordinal] = [0] * (2 * n_terms)
                row[offset] = dfs[slot]
                row[offset + 1] = postings[slot]
        touched: dict[int, float] = {}
        for ordinal, row in rows.items():
            goodness = 0.0
            for position in range(n_terms):
                df = row[2 * position]
                if df > 0:
                    average_tf = row[2 * position + 1] / df
                    goodness += df * (1.0 + math.log(max(average_tf, 1.0)))
            touched[ordinal] = goodness
        return touched, 0.0


class Cori(SourceSelector):
    """CORI (Callan et al., ref [5]): df.icf belief scoring of sources.

    Belief per term t for source s:
        T = df / (df + 50 + 150 * cw_s / mean_cw)
        I = log((C + 0.5) / cf_t) / log(C + 1.0)
        belief = 0.4 + 0.6 * T * I
    where cw_s is the source's total word mass, C the number of
    sources, and cf_t how many sources contain t.  The corpus-level
    statistics are the index's incrementally maintained columns, and
    only sources containing at least one query term are visited — every
    absent term contributes the default 0.4 belief, folded in
    analytically for untouched sources.
    """

    name = "CORI"
    prunable = True

    def _sparse_scores(
        self, terms: Sequence[str], index: SummaryIndex
    ) -> tuple[dict[int, float], float]:
        n_sources = len(index)
        n_terms = len(terms)
        if not n_sources or not n_terms:
            return {}, 0.0
        mean_mass = index.mean_clamped_word_mass()
        columns = [index.term_columns(term) for term in terms]
        # Per-term I components depend only on maintained corpus stats.
        log_denominator = math.log(n_sources + 1.0)
        i_parts: list[float] = []
        for shard in columns:
            cf = shard.collection_frequency
            if cf == 0:
                i_parts.append(0.0)  # unused: every df is 0 for this term
            else:
                i_parts.append(
                    max(math.log((n_sources + 0.5) / cf) / log_denominator, 0.0)
                )
        rows: dict[int, list[int]] = {}
        for position, shard in enumerate(columns):
            dfs = shard.document_frequencies
            for slot, ordinal in enumerate(shard.ordinals):
                row = rows.get(ordinal)
                if row is None:
                    row = rows[ordinal] = [0] * n_terms
                row[position] = dfs[slot]
        # The all-absent belief profile, summed exactly as the dense
        # oracle sums a per-term list of 0.4s.
        default_sum = 0.0
        for _ in range(n_terms):
            default_sum += 0.4
        default = default_sum / n_terms
        touched: dict[int, float] = {}
        for ordinal, row in rows.items():
            # Hoisted per-source mass ratio: the dense oracle evaluates
            # the identical sub-expression per term; hoisting it is
            # bit-neutral because the operands never change mid-query.
            mass_ratio = 150.0 * index.clamped_word_mass(ordinal) / mean_mass
            belief_sum = 0.0
            for position in range(n_terms):
                df = row[position]
                if df == 0:
                    belief_sum += 0.4
                else:
                    t_part = df / (df + 50.0 + mass_ratio)
                    belief_sum += 0.4 + 0.6 * t_part * i_parts[position]
            touched[ordinal] = belief_sum / n_terms
        return touched, default

    def sparse_default(self, terms: Sequence[str], n_sources: int) -> float:
        if not n_sources or not terms:
            return 0.0
        # Summed exactly as the sparse path sums a per-term list of
        # 0.4s, so a pruned shard's sources match the flat default bit
        # for bit.
        default_sum = 0.0
        for _ in terms:
            default_sum += 0.4
        return default_sum / len(terms)


class SelectAll(SourceSelector):
    """Baseline: every source is equally good (score 1)."""

    name = "all"
    prunable = True

    def sparse_default(self, terms: Sequence[str], n_sources: int) -> float:
        return 1.0

    def _sparse_scores(
        self, terms: Sequence[str], index: SummaryIndex
    ) -> tuple[dict[int, float], float]:
        return {}, 1.0


class RandomSelector(SourceSelector):
    """Baseline: a seeded random permutation per query."""

    name = "random"
    #: The permutation is over the full id set at once — per-shard
    #: permutations merged at a root would be a different shuffle.
    distributable = False

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed

    def _rank(
        self, terms: Sequence[str], index: SummaryIndex
    ) -> list[tuple[str, float]]:
        ids = index.source_ids()
        # zlib.crc32 rather than hash(): Python string hashing is
        # randomized per process, which would break reproducibility.
        digest = zlib.crc32(" ".join(terms).encode("utf-8"))
        rng = random.Random((self._seed * 2654435761 + digest) & 0xFFFFFFFF)
        rng.shuffle(ids)
        # Already a full permutation in rank order; the order key would
        # only re-derive it.
        return [
            (source_id, float(len(ids) - position))
            for position, source_id in enumerate(ids)
        ]

    def _candidates(
        self, terms: Sequence[str], index: SummaryIndex, k: int
    ) -> list[tuple[str, float]]:
        return self._rank(terms, index)


class BySize(SourceSelector):
    """Baseline: bigger sources first (crawler intuition, no summaries)."""

    name = "by-size"

    def _sparse_scores(
        self, terms: Sequence[str], index: SummaryIndex
    ) -> tuple[dict[int, float], float]:
        return (
            {
                ordinal: float(n_docs)
                for _, ordinal in index.sorted_sources()
                if (n_docs := index.num_docs(ordinal)) != 0
            },
            0.0,
        )


class CostAware(SourceSelector):
    """Discount an inner selector's goodness by per-source cost.

    ``utility = goodness / (1 + tradeoff * cost)``; costs default to 0,
    so unspecified sources are unaffected.
    """

    name = "cost-aware"
    #: The discount can promote a source past the inner per-shard top-k,
    #: so a leaf cannot know its own exact candidates without the costs
    #: of every other leaf's sources.
    distributable = False

    def __init__(
        self,
        inner: SourceSelector,
        costs: dict[str, float],
        tradeoff: float = 1.0,
    ) -> None:
        self._inner = inner
        self._costs = costs
        self._tradeoff = tradeoff
        self.name = f"cost-aware({inner.name})"

    def _rank(
        self, terms: Sequence[str], index: SummaryIndex
    ) -> list[tuple[str, float]]:
        ranked = self._inner._rank(terms, index)
        discounted = [
            (
                source_id,
                goodness / (1.0 + self._tradeoff * self._costs.get(source_id, 0.0)),
            )
            for source_id, goodness in ranked
        ]
        discounted.sort(key=order_key)
        return discounted

    def _candidates(
        self, terms: Sequence[str], index: SummaryIndex, k: int
    ) -> list[tuple[str, float]]:
        # Discounting can promote a source past the inner top-k, so the
        # full discounted ranking is required.
        return self._rank(terms, index)


#: CLI/wire names → zero-argument selector factories.  What the
#: ``python -m repro select``/``broker`` subcommands accept and what a
#: network leaf endpoint resolves a requested selector name against.
SELECTOR_REGISTRY: dict[str, type[SourceSelector]] = {
    "cori": Cori,
    "bgloss": BGloss,
    "vgloss-sum": VGlossSum,
    "vgloss-max": VGlossMax,
    "by-size": BySize,
    "select-all": SelectAll,
    "random": RandomSelector,
}
