"""The dict-of-summaries selection scan ``selection.py`` used to ship.

Every built-in selector once carried its formula twice: a per-summary
``score`` (or, for CORI / random / cost-aware, a ``_rank_dense``
override) run over a plain ``dict[str, SContentSummary]``, and the
sparse form over a :class:`~repro.metasearch.summary_index.SummaryIndex`
that is now the only one in ``src/``.  The dense halves are moved here
verbatim — ``self`` became the selector argument the seed / costs /
inner selector are read from, and the per-class methods are looked up by
selector type.  They touch nothing but ``SContentSummary`` lookups, so
they share no code with the index they check.
``tests/metasearch/test_selection_equivalence.py`` demands the same
floats in the same order from both.
"""

from __future__ import annotations

import math
import random
import zlib
from collections.abc import Sequence

from repro.metasearch.selection import (
    BGloss,
    BySize,
    Cori,
    CostAware,
    RandomSelector,
    SelectAll,
    SourceSelector,
    VGlossMax,
    VGlossSum,
    order_key,
)
from repro.starts.metadata import SContentSummary

__all__ = ["oracle_rank", "oracle_select"]


def _bgloss_score(terms: Sequence[str], summary: SContentSummary) -> float:
    n_docs = summary.num_docs
    if n_docs <= 0:
        return 0.0
    estimate = float(n_docs)
    for term in terms:
        df = summary.document_frequency(term)
        estimate *= df / n_docs
        if estimate == 0.0:
            return 0.0
    return estimate


def _total_postings(summary: SContentSummary, term: str) -> int:
    if not summary.case_sensitive:
        term = term.lower()
    return summary.word_statistics().get(term, (0, 0))[0]


def _vgloss_sum_score(terms: Sequence[str], summary: SContentSummary) -> float:
    return float(sum(_total_postings(summary, term) for term in terms))


def _vgloss_max_score(terms: Sequence[str], summary: SContentSummary) -> float:
    goodness = 0.0
    for term in terms:
        df = summary.document_frequency(term)
        postings = _total_postings(summary, term)
        if df > 0:
            average_tf = postings / df
            goodness += df * (1.0 + math.log(max(average_tf, 1.0)))
    return goodness


def _select_all_score(terms: Sequence[str], summary: SContentSummary) -> float:
    return 1.0


def _by_size_score(terms: Sequence[str], summary: SContentSummary) -> float:
    return float(summary.num_docs)


_SCORE = {
    BGloss: _bgloss_score,
    VGlossSum: _vgloss_sum_score,
    VGlossMax: _vgloss_max_score,
    SelectAll: _select_all_score,
    BySize: _by_size_score,
}


def _rank_by_score(
    selector: SourceSelector,
    terms: Sequence[str],
    summaries: dict[str, SContentSummary],
) -> list[tuple[str, float]]:
    score = _SCORE[type(selector)]
    scored = [
        (source_id, score(terms, summary))
        for source_id, summary in summaries.items()
    ]
    scored.sort(key=order_key)
    return scored


def _cori_rank(
    selector: Cori,
    terms: Sequence[str],
    summaries: dict[str, SContentSummary],
) -> list[tuple[str, float]]:
    if not summaries:
        return []
    n_sources = len(summaries)
    word_mass = {
        source_id: max(1.0, float(summary.total_word_mass()))
        for source_id, summary in summaries.items()
    }
    mean_mass = sum(word_mass.values()) / n_sources
    collection_frequency = {
        term: sum(
            1 for summary in summaries.values() if summary.document_frequency(term) > 0
        )
        for term in terms
    }

    scored: list[tuple[str, float]] = []
    for source_id, summary in summaries.items():
        beliefs = []
        for term in terms:
            df = summary.document_frequency(term)
            cf = collection_frequency[term]
            if df == 0 or cf == 0:
                beliefs.append(0.4)
                continue
            t_part = df / (df + 50.0 + 150.0 * word_mass[source_id] / mean_mass)
            i_part = math.log((n_sources + 0.5) / cf) / math.log(n_sources + 1.0)
            beliefs.append(0.4 + 0.6 * t_part * max(i_part, 0.0))
        goodness = sum(beliefs) / len(beliefs) if beliefs else 0.0
        scored.append((source_id, goodness))
    scored.sort(key=order_key)
    return scored


def _random_rank(
    selector: RandomSelector,
    terms: Sequence[str],
    summaries: dict[str, SContentSummary],
) -> list[tuple[str, float]]:
    ids = sorted(summaries)
    # zlib.crc32 rather than hash(): Python string hashing is
    # randomized per process, which would break reproducibility.
    digest = zlib.crc32(" ".join(terms).encode("utf-8"))
    rng = random.Random((selector._seed * 2654435761 + digest) & 0xFFFFFFFF)
    rng.shuffle(ids)
    return [(source_id, float(len(ids) - index)) for index, source_id in enumerate(ids)]


def _cost_aware_rank(
    selector: CostAware,
    terms: Sequence[str],
    summaries: dict[str, SContentSummary],
) -> list[tuple[str, float]]:
    ranked = oracle_rank(selector._inner, terms, summaries)
    discounted = [
        (
            source_id,
            goodness / (1.0 + selector._tradeoff * selector._costs.get(source_id, 0.0)),
        )
        for source_id, goodness in ranked
    ]
    discounted.sort(key=order_key)
    return discounted


_RANK = {Cori: _cori_rank, RandomSelector: _random_rank, CostAware: _cost_aware_rank}


def oracle_rank(
    selector: SourceSelector,
    terms: Sequence[str],
    summaries: dict[str, SContentSummary],
) -> list[tuple[str, float]]:
    """``selector.rank`` as the dense backend computed it."""
    return _RANK.get(type(selector), _rank_by_score)(selector, terms, summaries)


def oracle_select(
    selector: SourceSelector,
    terms: Sequence[str],
    summaries: dict[str, SContentSummary],
    k: int,
) -> list[str]:
    """``selector.select`` as the dense backend computed it."""
    return [source_id for source_id, _ in oracle_rank(selector, terms, summaries)[:k]]
