"""One ``Metasearcher``, many callers: nothing a call is handed leaks.

A search's tracer is an argument, never state parked on the shared
transport client — so a harvest after a search cannot write into that
search's finished trace, and N threads searching one instance each get
a trace holding only their own spans, with ranks equal to a serial run.

A round reads discovery's published catalog once, so a writer that
forgets or re-harvests sources while others search changes only the
rounds that open after it publishes: every ranking, batch or drained
stream, is the serial ranking on one catalog the writer could have
published.
"""

import sys
import threading
from dataclasses import replace

from repro.cache import CachePolicy
from repro.experiments import FederationSpec, build_federation
from repro.federation import AsyncExecutor
from repro.metasearch import Metasearcher
from repro.metasearch.selection import VGlossMax
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


def _churn_world():
    fed = build_federation(
        FederationSpec(n_sources=8, docs_per_source=12, n_queries=6, seed=3)
    )
    queries = [ranking_query(*generated.terms) for generated in fed.workload.queries]
    return fed, queries


def _uncached(fed) -> Metasearcher:
    searcher = Metasearcher(
        fed.internet, [fed.resource_url], cache_policy=CachePolicy.disabled()
    )
    searcher.refresh()
    return searcher


def _rank(result):
    return tuple((document.linkage, document.score) for document in result.documents)


class TestOneCatalogPerRound:
    """A refresh or ``forget`` running alongside searches: nothing raises,
    and each round ranks exactly as a serial search on one catalog."""

    SEARCHERS, SEARCHES_EACH, K = 4, 150, 3

    @staticmethod
    def _catalog_rankings(fed, queries) -> list[set]:
        """Per query, its serial ranking on each of the 9 catalogs the
        forget churn can publish: all 8 sources, or all 8 minus one."""
        searcher = _uncached(fed)
        ids = [known.source_id for known in searcher.discovery.known_sources()]
        assert len(ids) == 8
        rankings = [{_rank(searcher.search(query, k_sources=3))} for query in queries]
        for source_id in ids:
            searcher.discovery.forget(source_id)
            for allowed, query in zip(rankings, queries):
                allowed.add(_rank(searcher.search(query, k_sources=3)))
            searcher.refresh()
        return rankings

    @staticmethod
    def _forget_and_refresh(searcher):
        ids = [known.source_id for known in searcher.discovery.known_sources()]
        step = 0

        def write() -> None:
            nonlocal step
            searcher.discovery.forget(ids[step % len(ids)])
            searcher.refresh()
            step += 1

        return write

    @staticmethod
    def _expire_every_source(fed) -> None:
        """Every source gives a ``DateExpires`` from here on."""
        for source in fed.sources.values():
            exported = source.metadata
            source.metadata = lambda exported=exported: replace(
                exported(), date_expires="1996-06-01"
            )

    @staticmethod
    def _reharvest_everything(searcher):
        """The discovery clock is far past every ``DateExpires``, so each
        refresh re-harvests all the sources."""
        searcher.discovery.clock = "2100-01-01"
        before = searcher.discovery.source("Exp-00")
        searcher.refresh()
        assert searcher.discovery.source("Exp-00") is not before
        return searcher.refresh

    def _churn(self, writer_kind: str, streams: bool = False) -> None:
        """With ``streams``, each searching thread alternates ``search``
        with a drained ``search_stream``."""
        fed, queries = _churn_world()
        allowed = self._catalog_rankings(fed, queries)
        if writer_kind == "forget":
            searcher = _uncached(fed)
            write = self._forget_and_refresh(searcher)
        else:
            self._expire_every_source(fed)
            searcher = _uncached(fed)
            write = self._reharvest_everything(searcher)

        failures: list[Exception] = []
        wrong: list[tuple[int, tuple]] = []
        done = threading.Event()
        writes = 0

        def search(seed: int) -> None:
            for step in range(self.SEARCHES_EACH):
                index = (seed + step) % len(queries)
                try:
                    if streams and step % 2:
                        *_, final = searcher.search_stream(
                            queries[index], k_sources=self.K, early_stop=False
                        )
                        result = final.result
                    else:
                        result = searcher.search(queries[index], k_sources=self.K)
                except Exception as error:  # surfaced on the main thread
                    failures.append(error)
                    continue
                if (rank := _rank(result)) not in allowed[index]:
                    wrong.append((index, rank))

        def churn() -> None:
            nonlocal writes
            try:
                while not done.is_set():
                    write()
                    writes += 1
            except Exception as error:  # surfaced on the main thread
                failures.append(error)

        searchers = [
            threading.Thread(target=search, args=(seed,))
            for seed in range(self.SEARCHERS)
        ]
        writer = threading.Thread(target=churn)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writer.start()
            for thread in searchers:
                thread.start()
            for thread in searchers:
                thread.join(timeout=120.0)
        finally:
            done.set()
            writer.join(timeout=120.0)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [writer, *searchers])
        searches = self.SEARCHERS * self.SEARCHES_EACH
        assert not failures, f"{len(failures)} of {searches} raised: {failures[:3]}"
        assert wrong == []
        assert writes > 0

    def test_forget_churn_raises_nothing_and_ranks_on_one_catalog(self):
        self._churn("forget", streams=True)

    def test_reharvest_churn_raises_nothing_and_ranks_on_one_catalog(self):
        self._churn("reharvest")


class _ForgetsItsFirstPick(VGlossMax):
    """vGlOSS-Max that makes discovery forget its best pick mid-round."""

    def __init__(self, discovery) -> None:
        self.discovery = discovery
        self.forgotten: str | None = None

    def select(self, terms, index, k):
        picked = super().select(terms, index, k)
        if self.forgotten is None:
            self.forgotten = picked[0]
            self.discovery.forget(self.forgotten)
        return picked


class TestForgetInsideARound:
    def test_the_round_finishes_on_its_catalog_and_the_next_one_moves_on(self):
        fed, queries = _churn_world()
        query = queries[0]
        expected = _uncached(fed).search(query, k_sources=3)

        searcher = _uncached(fed)
        selector = _ForgetsItsFirstPick(searcher.discovery)
        result = searcher.search(query, k_sources=3, selector=selector)
        assert selector.forgotten in expected.selected_sources
        assert result.selected_sources == expected.selected_sources
        assert _rank(result) == _rank(expected)
        assert result.outcome_counts() == expected.outcome_counts()

        after = searcher.search(query, k_sources=3)
        assert selector.forgotten not in after.selected_sources
