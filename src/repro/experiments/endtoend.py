"""Experiment E5: the full STARTS pipeline vs. the pre-STARTS baseline.

The STARTS metasearcher selects k sources from summaries, pre-translates
per capabilities, queries over the wire and merges with global
statistics.  The baseline metasearcher — what §5 says MetaCrawler-era
systems did — queries *every* source and merges raw scores.  Measured
per query: answer quality (precision@10), network requests, simulated
latency and monetary cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.policy import CachePolicy
from repro.experiments.federation import Federation
from repro.experiments.metrics import mean, precision_at_k
from repro.metasearch import (
    Metasearcher,
    RawScoreMerge,
    SelectAll,
    TfIdfRecomputeMerge,
    VGlossMax,
)

__all__ = ["PipelineResult", "run_end_to_end_experiment"]


@dataclass(frozen=True)
class PipelineResult:
    """Aggregate behaviour of one pipeline configuration."""

    name: str
    precision_at_10: float
    requests_per_query: float
    latency_ms_per_query: float
    cost_per_query: float
    parallel_latency_ms_per_query: float = 0.0

    def row(self) -> str:
        return (
            f"{self.name:<22} P@10={self.precision_at_10:.3f} "
            f"reqs={self.requests_per_query:.1f} "
            f"latency={self.latency_ms_per_query:.0f}ms "
            f"(parallel {self.parallel_latency_ms_per_query:.0f}ms) "
            f"cost={self.cost_per_query:.2f}"
        )


def run_end_to_end_experiment(
    federation: Federation,
    n_queries: int = 20,
    k_sources: int = 3,
) -> list[PipelineResult]:
    """Run E5: STARTS pipeline vs. query-all/raw-merge baseline.

    The searchers run uncached: the workload's queries are distinct, and
    the paper-faithful numbers must not depend on a cache.
    """
    configurations = [
        ("starts(vGlOSS+tfidf)", VGlossMax(), TfIdfRecomputeMerge(), k_sources),
        ("baseline(all+raw)", SelectAll(), RawScoreMerge(), len(federation.sources)),
    ]
    queries = federation.workload.queries[:n_queries]

    results = []
    for name, selector, merger, k in configurations:
        searcher = Metasearcher(
            federation.internet,
            [federation.resource_url],
            selector=selector,
            merger=merger,
            cache_policy=CachePolicy.disabled(),
        )
        searcher.refresh()
        federation.internet.reset_log()

        precisions = []
        parallel_latencies = []
        for query in queries:
            search_result = searcher.search(
                query.to_squery(max_documents=20), k_sources=k
            )
            precisions.append(
                precision_at_k(search_result.linkages(), set(query.relevant), 10)
            )
            parallel_latencies.append(search_result.query_latency_parallel_ms)
        n = max(len(queries), 1)
        results.append(
            PipelineResult(
                name,
                mean(precisions),
                federation.internet.request_count() / n,
                federation.internet.total_latency_ms() / n,
                federation.internet.total_cost() / n,
                parallel_latency_ms_per_query=mean(parallel_latencies),
            )
        )
    return results
