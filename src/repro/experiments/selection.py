"""Experiment E1: source-selection effectiveness (GlOSS, refs [7, 8]).

For every selector, rank the federation's sources per query using only
the harvested content summaries, and measure *selection recall at k*:
the fraction of all relevant documents that live in the k sources
contacted first.  The paper's claim under test (§4.3.2): automatically
generated content summaries, orders of magnitude smaller than the
collections, are enough to tell useful sources from useless ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.federation import Federation
from repro.experiments.metrics import mean, rank_recall_at_k
from repro.metasearch.selection import (
    BGloss,
    BySize,
    Cori,
    RandomSelector,
    SourceSelector,
    VGlossMax,
    VGlossSum,
)
from repro.metasearch.summary_index import SummaryIndex

__all__ = ["SelectionResult", "default_selectors", "run_selection_experiment"]


@dataclass(frozen=True)
class SelectionResult:
    """Mean selection recall per k for one selector."""

    selector: str
    recall_at_k: dict[int, float]

    def row(self) -> str:
        cells = " ".join(
            f"R@{k}={value:.3f}" for k, value in sorted(self.recall_at_k.items())
        )
        return f"{self.selector:<14} {cells}"


def default_selectors() -> list[SourceSelector]:
    return [
        BGloss(),
        VGlossSum(),
        VGlossMax(),
        Cori(),
        BySize(),
        RandomSelector(seed=13),
    ]


def run_selection_experiment(
    federation: Federation,
    selectors: list[SourceSelector] | None = None,
    ks: tuple[int, ...] = (1, 2, 3, 5),
    max_words_per_section: int | None = None,
) -> list[SelectionResult]:
    """Run E1 and return one row per selector.

    Args:
        federation: the standard experiment federation.
        selectors: strategies to compare (defaults to all + baselines).
        ks: the numbers of sources contacted.
        max_words_per_section: truncate summaries first (the A1
            ablation knob); None uses full summaries.
    """
    selectors = selectors if selectors is not None else default_selectors()
    index = SummaryIndex.from_summaries(
        {
            source_id: source.content_summary(max_words_per_section)
            for source_id, source in federation.sources.items()
        }
    )

    results = []
    for selector in selectors:
        per_k: dict[int, list[float]] = {k: [] for k in ks}
        for query in federation.workload.queries:
            ranked = [
                source_id
                for source_id, _ in selector.rank(list(query.terms), index)
            ]
            for k in ks:
                per_k[k].append(
                    rank_recall_at_k(ranked, query.relevant_by_source, k)
                )
        results.append(
            SelectionResult(
                selector.name, {k: mean(values) for k, values in per_k.items()}
            )
        )
    return results
