"""One ``Metasearcher``, many callers: nothing a call is handed leaks.

A search's tracer is an argument, never state parked on the shared
transport client — so a harvest after a search cannot write into that
search's finished trace, and N threads searching one instance each get
a trace holding only their own spans, with ranks equal to a serial run.
"""

import sys
import threading
from dataclasses import replace

from repro.cache import CachePolicy
from repro.experiments import FederationSpec, build_federation
from repro.federation import AsyncExecutor
from repro.metasearch import Metasearcher
from repro.observability import Tracer
from repro.starts import SQuery, parse_expression


def ranking_query(*terms: str) -> SQuery:
    items = " ".join(f'(body-of-text "{term}")' for term in terms)
    return SQuery(
        ranking_expression=parse_expression(f"list({items})"),
        max_number_documents=10,
    )


def span_names(trace) -> list[str]:
    return [span.name for span in trace.walk()]


class TestNoTracerIsLeftOnTheSharedClient:
    def test_harvest_after_a_search_leaves_its_trace_alone(self, small_federation):
        internet, resource_url, _ = small_federation
        searcher = Metasearcher(internet, [resource_url])
        harvest_tracer, search_tracer = Tracer(), Tracer()
        searcher.refresh(tracer=harvest_tracer)
        assert any(
            name.startswith("fetch:") for name in span_names(harvest_tracer.trace())
        )

        result = searcher.search(ranking_query("databases"), tracer=search_tracer)
        finished = span_names(result.trace)
        harvested = span_names(harvest_tracer.trace())

        # Expire one source, then harvest outside any traced call.
        known = searcher.discovery.source("Fed-DB")
        known.metadata = replace(known.metadata, date_expires="1990-01-01")
        requests_before = internet.request_count()
        searcher.discovery.refresh_resource(resource_url)
        assert internet.request_count() > requests_before + 1  # it re-fetched

        assert span_names(search_tracer.trace()) == finished
        assert span_names(harvest_tracer.trace()) == harvested
        assert not any(name.startswith("fetch:") for name in finished)
        assert searcher.client.tracer is None


class TestConcurrentCallers:
    N_THREADS = 12  # more threads than cores, each doing all three kinds

    def _searcher(self, cache_policy):
        fed = self._federation()
        searcher = Metasearcher(
            fed.internet,
            [fed.resource_url],
            executor=AsyncExecutor(max_concurrency=3),
            cache_policy=cache_policy,
        )
        searcher.refresh()
        return searcher

    @staticmethod
    def _federation():
        return build_federation(
            FederationSpec(
                n_sources=6,
                docs_per_source=12,
                seed=5,
                slow_source_index=None,
                charging_source_index=None,
            )
        )

    @staticmethod
    def _rank(result):
        return [(document.linkage, document.score) for document in result.documents]

    @staticmethod
    def _check_trace(result):
        """Every span closed; only this search's sources were queried here."""
        spans = list(result.trace.walk())
        assert all(not span.is_open for span in spans)
        assert [span.name for span in result.trace.spans] == ["search"]
        queried = sorted(
            span.name for span in spans if span.name.startswith("query:")
        )
        contacted = sorted(
            f"query:{source_id}"
            for source_id, outcome in result.outcomes.items()
            if outcome.requests
        )
        if result.cache_status is None:
            assert queried == contacted
        else:
            assert queried == []
        ids = [span.span_id for span in spans]
        assert len(set(ids)) == len(ids)

    def test_threads_get_disjoint_traces_and_the_serial_ranks(self):
        queries = [
            ranking_query(*generated.terms)
            for generated in self._federation().workload.queries[: self.N_THREADS]
        ]
        assert len(queries) == self.N_THREADS
        serial = self._searcher(CachePolicy.disabled())
        expected = [
            self._rank(serial.search(query, k_sources=3)) for query in queries
        ]
        assert sum(1 for rank in expected if rank) > self.N_THREADS // 2

        uncached = self._searcher(CachePolicy.disabled())
        cached = self._searcher(CachePolicy())
        for query in queries:  # fill the cache serially
            cached.search(query, k_sources=3)

        failures: list[BaseException] = []
        seen: list[list] = [[] for _ in queries]
        trace_ids: set[str] = set()

        def caller(index: int) -> None:
            query = queries[index]
            try:
                batch = uncached.search(query, k_sources=3)
                hit = cached.search(query, k_sources=3)
                *_, last = uncached.search_stream(
                    query, k_sources=3, early_stop=False
                )
                assert hit.cache_status == "hit"
                assert last.is_final and last.result.cache_status is None
                for result in (batch, hit, last.result):
                    self._check_trace(result)
                    seen[index].append(self._rank(result))
                    trace_ids.add(result.trace.trace_id)
            except BaseException as error:  # surfaced on the main thread
                failures.append(error)

        threads = [
            threading.Thread(target=caller, args=(index,))
            for index in range(self.N_THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        for index, ranks in enumerate(seen):
            assert ranks == [expected[index]] * 3
        assert len(trace_ids) == 3 * self.N_THREADS
