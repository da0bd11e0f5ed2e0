"""E1 — source selection: selectors vs. baselines on recall-at-k.

Reproduces the GlOSS claim (refs [7, 8], §4.3.2): content-summary-based
selectors find most relevant documents in a handful of sources, far
ahead of size/random baselines.  The benchmark times one vGlOSS ranking
pass over all summaries.
"""

from repro.experiments import run_selection_experiment
from repro.metasearch.selection import VGlossMax
from repro.metasearch.summary_index import SummaryIndex


def test_bench_selection_recall(benchmark, federation, write_table):
    results = run_selection_experiment(federation)

    lines = ["E1: mean selection recall at k sources (30 queries)", ""]
    lines.extend(row.row() for row in results)
    write_table("E1_source_selection", lines)

    by_name = {row.selector: row for row in results}
    # The headline shape: every summary-based selector beats both
    # baselines at k=1 and k=2.
    for informed in ("bGlOSS", "vGlOSS-Sum", "vGlOSS-Max", "CORI"):
        for baseline in ("by-size", "random"):
            for k in (1, 2):
                assert (
                    by_name[informed].recall_at_k[k]
                    > by_name[baseline].recall_at_k[k]
                ), f"{informed} should beat {baseline} at k={k}"

    index = SummaryIndex.from_summaries(
        {
            source_id: source.content_summary()
            for source_id, source in federation.sources.items()
        }
    )
    query = federation.workload.queries[0]
    selector = VGlossMax()
    benchmark(lambda: selector.rank(list(query.terms), index))
