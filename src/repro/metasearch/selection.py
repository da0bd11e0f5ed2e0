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
rarest-first, the others add term at a time, and
:meth:`~SourceSelector.select` pairs only sources at or above the k-th
best goodness.  vGlOSS-Max adds the addends the index stored at build,
and its ``select`` runs the threshold algorithm over the index's
addend-sorted columns: it stops reading once the k-th best source seen
is strictly above anything an unseen source could still reach.  A
plain ``dict[str, SContentSummary]`` argument is indexed once on entry
(:meth:`SummaryIndex.from_summaries`) and scored the same way; callers
that select repeatedly over the same summaries build the index
themselves, once.  The per-summary dict scan these
formulas started from is the oracle in
``tests/oracles/dense_selection.py``.
"""

from __future__ import annotations

import heapq
import math
import random
import zlib
from collections.abc import Sequence

from repro.metasearch.summary_index import SummaryIndex
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

    Public because a ranking merged from several partial rankings (table
    A2's per-shard pools) must break ties exactly as one ranking does.
    """
    return (-pair[1], pair[0])


def _as_index(summaries: Summaries) -> SummaryIndex:
    if isinstance(summaries, SummaryIndex):
        return summaries
    return SummaryIndex.from_summaries(summaries)


class SourceSelector:
    """Interface: score every source for a query, best first."""

    name = "base"

    # -- public entry points -----------------------------------------------

    def rank(
        self,
        terms: Sequence[str],
        summaries: Summaries,
    ) -> list[tuple[str, float]]:
        """(source_id, goodness) sorted by descending goodness.

        Ties break on source id for determinism.
        """
        return self._rank(terms, _as_index(summaries))

    def select(
        self,
        terms: Sequence[str],
        summaries: Summaries,
        k: int,
    ) -> list[str]:
        """The ids of the top-k sources (``ValueError`` if ``k`` < 0)."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        pool = self._candidates(terms, _as_index(summaries), k)
        return [
            source_id for source_id, _ in heapq.nsmallest(k, pool, key=order_key)
        ]

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
        """An unsorted pool whose k best pairs are the exact top-k."""
        touched, default = self._sparse_scores(terms, index)
        return _pool(touched, default, index, k)


def _pool(
    touched: dict[int, float], default: float, index: SummaryIndex, k: int
) -> list[tuple[str, float]]:
    """The pool of ``touched`` (ordinal → goodness) and a default.

    A touched source below the k-th best touched goodness is beaten by k
    others; ties at that cut stay for the order key.  Untouched sources
    all carry the default score, so only the first k of them (in id
    order — exactly how their ties break) can make it.
    """
    cut = -math.inf
    if 0 < k < len(touched):
        cut = heapq.nlargest(k, touched.values())[-1]
    pool = [
        (index.source_id(ordinal), goodness)
        for ordinal, goodness in touched.items()
        if goodness >= cut
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

    def _sparse_scores(
        self, terms: Sequence[str], index: SummaryIndex
    ) -> tuple[dict[int, float], float]:
        # Term at a time: a source's float takes its stored addends in
        # query order, as the dense loop adds them, so sums match bit
        # for bit (an addend is never -0.0, so 0.0 + w is w).  A listed
        # source whose df is not positive enters at 0.0.
        touched: dict[int, float] = {}
        for term in terms:
            shard = index.term_columns(term)
            if not touched:
                touched = dict(zip(shard.ordinals, shard.weights))
                continue
            for ordinal, weight in zip(shard.ordinals, shard.weights):
                touched[ordinal] = touched.get(ordinal, 0.0) + weight
        return touched, 0.0

    def _candidates(
        self, terms: Sequence[str], index: SummaryIndex, k: int
    ) -> list[tuple[str, float]]:
        """The threshold algorithm (Fagin, Lotem & Naor, PODS 2001).

        The columns are read in parallel, one depth at a time, each in
        descending addend order.  A newly seen source gets its exact
        goodness through ``positions``; the threshold adds each live
        column's addend at this depth.  Both sums run in query-term
        order, and rounded addition is monotone, so no unseen source
        exceeds the threshold: once the k-th best seen goodness is
        strictly above it, no unseen source can make or tie into the cut.
        Columns that run out first leave every touched source seen.
        """
        if k == 0:
            return []
        columns = [index.term_columns(term) for term in terms]
        seen: dict[int, float] = {}
        best: list[float] = []  # min-heap of the k best goodness seen
        for depth in range(max(map(len, columns), default=0)):
            threshold = 0.0
            for shard in columns:
                if depth >= len(shard.weights):
                    continue
                threshold += shard.weights[depth]
                ordinal = shard.ordinals[depth]
                if ordinal in seen:
                    continue
                goodness = 0.0
                for other in columns:
                    slot = other.positions.get(ordinal)
                    if slot is not None:
                        goodness += other.weights[slot]
                seen[ordinal] = goodness
                if len(best) < k:
                    heapq.heappush(best, goodness)
                elif goodness > best[0]:
                    heapq.heapreplace(best, goodness)
            if len(best) == k and best[0] > threshold:
                return [
                    (index.source_id(ordinal), goodness)
                    for ordinal, goodness in seen.items()
                    if goodness >= best[0]
                ]
        return _pool(seen, 0.0, index, k)


class Cori(SourceSelector):
    """CORI (Callan et al., ref [5]): df.icf belief scoring of sources.

    Belief per term t for source s:
        T = df / (df + 50 + 150 * cw_s / mean_cw)
        I = log((C + 0.5) / cf_t) / log(C + 1.0)
        belief = 0.4 + 0.6 * T * I
    where cw_s is the source's total word mass, C the number of
    sources, and cf_t how many sources contain t.  The corpus-level
    statistics are the index's columns, counted when it is built, and
    only sources containing at least one query term are visited — every
    absent term contributes the default 0.4 belief, folded in
    analytically for untouched sources.
    """

    name = "CORI"

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
        # The all-absent belief profile, summed exactly as the dense
        # oracle sums a per-term list of 0.4s.
        default_sum = 0.0
        for _ in range(n_terms):
            default_sum += 0.4
        default = default_sum / n_terms
        # Hoisted per-source mass ratio: the dense oracle evaluates the
        # identical sub-expression per term; hoisting it is bit-neutral
        # because the operands never change mid-query.
        mass_ratios = {
            ordinal: 150.0 * index.clamped_word_mass(ordinal) / mean_mass
            for ordinal in set().union(*(shard.ordinals for shard in columns))
        }
        # Term at a time, every touched source gets one addend per term
        # in query order — its belief, or 0.4 where it lacks the term —
        # so each sum matches the oracle's sum of its belief list.
        belief_sums = dict.fromkeys(mass_ratios, 0.0)
        for shard, i_part in zip(columns, i_parts):
            positions, dfs = shard.positions, shard.document_frequencies
            for ordinal, mass_ratio in mass_ratios.items():
                slot = positions.get(ordinal)
                df = 0 if slot is None else dfs[slot]
                if df == 0:
                    belief_sums[ordinal] += 0.4
                else:
                    t_part = df / (df + 50.0 + mass_ratio)
                    belief_sums[ordinal] += 0.4 + 0.6 * t_part * i_part
        return {
            ordinal: belief_sum / n_terms
            for ordinal, belief_sum in belief_sums.items()
        }, default


class SelectAll(SourceSelector):
    """Baseline: every source is equally good (score 1)."""

    name = "all"

    def _sparse_scores(
        self, terms: Sequence[str], index: SummaryIndex
    ) -> tuple[dict[int, float], float]:
        return {}, 1.0


class RandomSelector(SourceSelector):
    """Baseline: a seeded random permutation per query."""

    name = "random"

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


#: CLI names → zero-argument selector factories: what ``python -m repro
#: select --selector`` accepts.
SELECTOR_REGISTRY: dict[str, type[SourceSelector]] = {
    "cori": Cori,
    "bgloss": BGloss,
    "vgloss-sum": VGlossSum,
    "vgloss-max": VGlossMax,
    "by-size": BySize,
    "select-all": SelectAll,
    "random": RandomSelector,
}
