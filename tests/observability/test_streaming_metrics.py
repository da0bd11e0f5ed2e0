"""Streaming telemetry: time to first result is on the search's own
record, and the executor's in-flight gauge reaches the Prometheus text."""

from repro.cache import CachePolicy
from repro.experiments import FederationSpec, build_federation
from repro.federation import AsyncExecutor, QueryPolicy
from repro.metasearch import Metasearcher
from repro.observability import render_prometheus
from repro.starts import SQuery, parse_expression


def _run_streamed_search(executor):
    federation = build_federation(
        FederationSpec(n_sources=4, docs_per_source=10, n_queries=2, seed=17)
    )
    searcher = Metasearcher(
        federation.internet,
        ["http://experiments.example.org/resource"],
        cache_policy=CachePolicy.disabled(),
        query_policy=QueryPolicy(timeout_ms=500.0),
    )
    searcher.refresh()
    query = SQuery(
        ranking_expression=parse_expression('(body-of-text "database")'),
        max_number_documents=10,
    )
    return list(searcher.search_stream(query, k_sources=3, executor=executor))


class TestStreamingMetrics:
    def test_first_result_histogram_observed(self, fresh_registry):
        """Time to first result is the first emission holding documents:
        its ``elapsed_ms``, and its ``emit:N`` event on the trace."""
        emissions = _run_streamed_search(AsyncExecutor(max_concurrency=4))
        final = emissions[-1]
        assert final.is_final
        first = next(emission for emission in emissions if emission.documents)
        assert 0.0 <= first.elapsed_ms <= final.elapsed_ms
        event = final.result.trace.find(f"emit:{first.sequence}")
        assert event.attributes["documents"] == len(first.documents)
        assert fresh_registry.family("stream_first_result_ms") is None

    def test_inflight_gauge_settles_to_zero(self, fresh_registry):
        _run_streamed_search(AsyncExecutor(max_concurrency=4))
        gauge = fresh_registry.gauge(
            "executor_inflight_tasks",
            "Source-query tasks currently in flight per executor.",
            labels=("executor",),
        )
        assert gauge.labels(executor="async").value == 0.0

    def test_both_families_render_in_prometheus_text(self, fresh_registry):
        _run_streamed_search(AsyncExecutor(max_concurrency=4))
        text = render_prometheus(fresh_registry)
        assert "# TYPE executor_inflight_tasks gauge" in text
        assert 'executor_inflight_tasks{executor="async"}' in text
        assert "stream_first_result_ms" not in text
