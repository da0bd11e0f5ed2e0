"""E5 — the full STARTS pipeline vs. the query-all/raw-merge baseline.

Reproduces the paper's bottom line (§6): STARTS "can significantly
streamline the implementation of metasearchers, as well as enhance the
functionality they can offer" — here: equal-or-better result quality at
a fraction of the requests, latency and monetary cost.  The benchmark
times one full metasearch (select → translate → query → merge).
"""

from repro.cache import CachePolicy
from repro.experiments import run_end_to_end_experiment
from repro.metasearch import Metasearcher


def test_bench_end_to_end_pipeline(benchmark, federation, write_table):
    results = run_end_to_end_experiment(federation, n_queries=15, k_sources=3)

    lines = ["E5: STARTS pipeline vs pre-STARTS baseline (15 queries)", ""]
    lines.extend(row.row() for row in results)
    write_table("E5_end_to_end", lines)

    starts = next(row for row in results if row.name.startswith("starts"))
    baseline = next(row for row in results if row.name.startswith("baseline"))
    # Headline shape: selection halves the traffic without losing quality.
    assert starts.requests_per_query < baseline.requests_per_query
    assert starts.cost_per_query <= baseline.cost_per_query
    assert starts.precision_at_10 >= baseline.precision_at_10 - 0.05

    # The benchmark times the *uncached* pipeline: pytest-benchmark
    # repeats one query, and a result-cache hit would be all it measures
    # (test_bench_cache_hit_rate covers the cached path).
    searcher = Metasearcher(
        federation.internet,
        [federation.resource_url],
        cache_policy=CachePolicy.disabled(),
    )
    searcher.refresh()
    query = federation.workload.queries[0].to_squery(max_documents=10)
    benchmark(lambda: searcher.search(query, k_sources=3))
