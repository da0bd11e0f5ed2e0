"""E1b — the GlOSS-style figure: recall-vs-k curves over 10 sources.

The figure federated-search papers plot: selection recall as a function
of the number of sources contacted, one series per strategy.  Written
as an aligned text table (one row per k) so the series can be eyeballed
or re-plotted.
"""

from repro.experiments import (
    FederationSpec,
    build_federation,
    run_selection_experiment,
)
from repro.metasearch.selection import VGlossMax
from repro.metasearch.summary_index import SummaryIndex


def test_bench_selection_curve(benchmark, write_table):
    federation = build_federation(
        FederationSpec(n_sources=10, docs_per_source=40, n_queries=40, seed=9)
    )
    ks = tuple(range(1, 11))
    results = run_selection_experiment(federation, ks=ks)
    by_name = {row.selector: row for row in results}

    names = ["bGlOSS", "vGlOSS-Max", "CORI", "by-size", "random"]
    lines = [
        "E1b: selection recall vs k (10 sources, 40 queries)",
        "",
        "k    " + " ".join(f"{name:>11}" for name in names),
    ]
    for k in ks:
        cells = " ".join(f"{by_name[name].recall_at_k[k]:>11.3f}" for name in names)
        lines.append(f"{k:<4} {cells}")
    write_table("E1b_selection_curve", lines)

    # Figure shape: informed selectors dominate baselines pointwise
    # until saturation, and all curves are monotone non-decreasing.
    for name in names:
        series = [by_name[name].recall_at_k[k] for k in ks]
        assert series == sorted(series)
    for k in (1, 2, 3):
        assert by_name["vGlOSS-Max"].recall_at_k[k] >= by_name["by-size"].recall_at_k[k]
        assert by_name["bGlOSS"].recall_at_k[k] > by_name["random"].recall_at_k[k]

    index = SummaryIndex.from_summaries(
        {
            source_id: source.content_summary()
            for source_id, source in federation.sources.items()
        }
    )
    query = federation.workload.queries[0]
    benchmark(lambda: VGlossMax().rank(list(query.terms), index))
