"""A1 — ablations over the design choices DESIGN.md calls out.

1. Summary granularity: selection recall with full vs. truncated
   summaries (the summary-size / selection-quality trade-off of §4.3.2).
2. ScoreRange: range-normalized merging with and without the exported
   range (falling back to observed maxima).
3. Document frequencies in re-ranking: tf-only (Example 9) vs. tf·idf
   with global df ("more sophisticated schemes could also use the
   document frequencies").
"""

from repro.experiments import (
    run_merging_experiment,
    run_selection_experiment,
)
from repro.metasearch.merging import (
    NormalizedScoreMerge,
    TermFrequencyMerge,
    TfIdfRecomputeMerge,
)
from repro.metasearch.selection import VGlossMax


def test_bench_summary_granularity_ablation(benchmark, federation, write_table):
    lines = ["A1a: selection recall vs summary truncation (vGlOSS-Max)", ""]
    recalls = {}
    for label, max_words in (("full", None), ("top-100", 100), ("top-25", 25), ("top-5", 5)):
        rows = run_selection_experiment(
            federation,
            selectors=[VGlossMax()],
            ks=(1, 3),
            max_words_per_section=max_words,
        )
        recalls[label] = rows[0].recall_at_k
        lines.append(f"{label:<8} R@1={rows[0].recall_at_k[1]:.3f} R@3={rows[0].recall_at_k[3]:.3f}")
    write_table("A1a_summary_granularity", lines)

    # Severe truncation must not beat full summaries.
    assert recalls["top-5"][1] <= recalls["full"][1] + 1e-9

    benchmark(
        lambda: run_selection_experiment(
            federation, selectors=[VGlossMax()], ks=(1,), max_words_per_section=25
        )
    )


def test_bench_df_in_reranking_ablation(benchmark, federation, write_table):
    rows = run_merging_experiment(
        federation,
        strategies=[TermFrequencyMerge(), TfIdfRecomputeMerge()],
        n_queries=20,
    )
    lines = ["A1b: document frequencies in statistics-based re-ranking", ""]
    lines.extend(row.row() for row in rows)
    by_name = {row.strategy: row for row in rows}
    assert (
        by_name["tfidf-recompute"].spearman_vs_reference
        >= by_name["term-frequency"].spearman_vs_reference
    )
    write_table("A1b_df_reranking", lines)

    benchmark(
        lambda: run_merging_experiment(
            federation, strategies=[TfIdfRecomputeMerge()], n_queries=3
        )
    )


def test_bench_score_range_ablation(benchmark, federation, write_table):
    """Range-normalization with vs. without the exported ScoreRange."""
    from dataclasses import replace

    rows_with = run_merging_experiment(
        federation, strategies=[NormalizedScoreMerge()], n_queries=20
    )

    # Strip the exported ranges by monkey-wrapping the context: easiest
    # honest ablation is re-running with metadata whose range is
    # unbounded, forcing the observed-max fallback.
    class UnboundedRange(NormalizedScoreMerge):
        name = "range-normalized(no-range)"

        def prepare(self, source_id, results, context):
            metadata = context.metadata.get(source_id)
            if metadata is not None:
                context.metadata[source_id] = replace(
                    metadata, score_range=(0.0, float("inf"))
                )
            try:
                return super().prepare(source_id, results, context)
            finally:
                if metadata is not None:
                    context.metadata[source_id] = metadata

    rows_without = run_merging_experiment(
        federation, strategies=[UnboundedRange()], n_queries=20
    )

    lines = ["A1c: ScoreRange metadata on/off for range normalization", ""]
    lines.extend(row.row() for row in rows_with + rows_without)
    write_table("A1c_score_range", lines)

    benchmark(
        lambda: run_merging_experiment(
            federation, strategies=[NormalizedScoreMerge()], n_queries=3
        )
    )
