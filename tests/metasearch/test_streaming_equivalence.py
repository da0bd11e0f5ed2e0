"""``search_stream`` must reproduce batch ``search`` bit for bit.

Two identically seeded worlds are built per comparison — one consumed
by batch :meth:`Metasearcher.search`, one by
:meth:`Metasearcher.search_stream` — because both paths draw from the
simulated internet's deterministic jitter/fault streams.  The final
streamed ranking (documents, scores, source attributions, order) must
equal the batch oracle across every merge strategy, executor, fault
profile and retry/hedge policy.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CachePolicy
from repro.experiments import FederationSpec, build_federation
from repro.federation import (
    AsyncExecutor,
    OutcomeStatus,
    QueryPolicy,
    SerialExecutor,
)
from repro.metasearch import MERGE_STRATEGIES, Metasearcher, RawScoreMerge, SelectAll
from repro.resource import Resource
from repro.source import StartsSource
from repro.starts import SQuery, parse_expression
from repro.transport import HostProfile, SimulatedInternet, publish_resource

EXECUTORS = {
    "serial": SerialExecutor,
    "async": lambda: AsyncExecutor(max_concurrency=8),
}

RESOURCE_URL = "http://experiments.example.org/resource"


def ranking_query(max_documents: int = 20) -> SQuery:
    return SQuery(
        ranking_expression=parse_expression('list((body-of-text "database"))'),
        max_number_documents=max_documents,
    )


def build_searcher(
    seed: int,
    policy: QueryPolicy,
    flaky: int | None = None,
    dead: int | None = None,
) -> Metasearcher:
    federation = build_federation(
        FederationSpec(
            n_sources=6,
            docs_per_source=12,
            n_queries=2,
            seed=seed,
            flaky_source_index=flaky,
            dead_source_index=dead,
        )
    )
    searcher = Metasearcher(
        federation.internet,
        [RESOURCE_URL],
        cache_policy=CachePolicy.disabled(),
        query_policy=policy,
    )
    searcher.refresh()
    return searcher


def rank_of(result):
    return [(d.linkage, d.score, d.source_id) for d in result.documents]


def final_emission(stream):
    emissions = list(stream)
    assert emissions, "stream yielded nothing"
    assert emissions[-1].is_final
    return emissions[-1]


class TestStrategyExecutorMatrix:
    POLICY = QueryPolicy(timeout_ms=500.0, max_retries=1, hedge_after_ms=100.0)

    @pytest.mark.parametrize("strategy_name", sorted(MERGE_STRATEGIES))
    @pytest.mark.parametrize("executor_name", sorted(EXECUTORS))
    def test_final_rank_matches_batch(self, strategy_name, executor_name):
        query = ranking_query()
        kwargs = dict(flaky=1, dead=4)
        batch = build_searcher(13, self.POLICY, **kwargs).search(
            query,
            k_sources=5,
            merger=MERGE_STRATEGIES[strategy_name](),
            executor=EXECUTORS[executor_name](),
        )
        streamed = final_emission(
            build_searcher(13, self.POLICY, **kwargs).search_stream(
                query,
                k_sources=5,
                merger=MERGE_STRATEGIES[strategy_name](),
                executor=EXECUTORS[executor_name](),
                early_stop=False,
            )
        ).result
        assert rank_of(streamed) == rank_of(batch)
        assert {
            sid: outcome.status for sid, outcome in streamed.outcomes.items()
        } == {sid: outcome.status for sid, outcome in batch.outcomes.items()}


class TestPropertyEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 40),
        strategy_name=st.sampled_from(sorted(MERGE_STRATEGIES)),
        executor_name=st.sampled_from(sorted(EXECUTORS)),
        fault=st.sampled_from(["none", "flaky", "dead", "both"]),
        max_retries=st.integers(0, 2),
        hedge=st.sampled_from([None, 50.0, 150.0]),
        k_sources=st.integers(2, 6),
    )
    def test_stream_equals_batch(
        self, seed, strategy_name, executor_name, fault, max_retries, hedge, k_sources
    ):
        policy = QueryPolicy(
            timeout_ms=500.0,
            max_retries=max_retries,
            backoff_base_ms=10.0,
            hedge_after_ms=hedge,
        )
        kwargs = {
            "none": {},
            "flaky": {"flaky": 1},
            "dead": {"dead": 3},
            "both": {"flaky": 1, "dead": 3},
        }[fault]
        query = ranking_query()
        batch = build_searcher(seed, policy, **kwargs).search(
            query,
            k_sources=k_sources,
            merger=MERGE_STRATEGIES[strategy_name](),
            executor=EXECUTORS[executor_name](),
        )
        streamed = final_emission(
            build_searcher(seed, policy, **kwargs).search_stream(
                query,
                k_sources=k_sources,
                merger=MERGE_STRATEGIES[strategy_name](),
                executor=EXECUTORS[executor_name](),
                early_stop=False,
            )
        ).result
        assert rank_of(streamed) == rank_of(batch)


class TestGroupedRouting:
    def test_group_by_resource_stream_matches_batch(self):
        policy = QueryPolicy(timeout_ms=500.0)
        query = ranking_query()
        batch = build_searcher(5, policy).search(
            query, k_sources=5, group_by_resource=True
        )
        streamed = final_emission(
            build_searcher(5, policy).search_stream(
                query, k_sources=5, group_by_resource=True, early_stop=False
            )
        ).result
        assert rank_of(streamed) == rank_of(batch)

    def test_a_cancelled_entry_keeps_its_siblings(self):
        """Two resources of two sources each, cut off after the first
        answer: the cancelled entry still answers for its sibling."""
        from repro.corpus import source1_documents, source2_documents

        internet = SimulatedInternet(seed=3)
        for name, documents in (("A", source1_documents()), ("B", source2_documents())):
            members = [
                StartsSource(f"{name}{n}", documents, base_url=f"http://{name}{n}.org/s")
                for n in (1, 2)
            ]
            publish_resource(internet, Resource(name, members), f"http://{name}.org")
        searcher = Metasearcher(
            internet,
            ["http://A.org/resource", "http://B.org/resource"],
            cache_policy=CachePolicy.disabled(),
        )
        searcher.refresh()
        final = final_emission(
            searcher.search_stream(
                ranking_query(),
                k_sources=4,
                selector=SelectAll(),
                group_by_resource=True,
                executor=SerialExecutor(),
                deadline_ms=0.0,
            )
        )
        (cancelled,) = [
            outcome
            for outcome in final.result.outcomes.values()
            if outcome.status is OutcomeStatus.CANCELLED
        ]
        resource = cancelled.source_id[0]
        assert {cancelled.source_id, *cancelled.sibling_ids} == {
            f"{resource}1",
            f"{resource}2",
        }
        assert len(cancelled.sibling_ids) == 1
        sibling = cancelled.sibling_ids[0]
        assert f"also answers for: {sibling}" in final.result.explain()


class TestEarlyTermination:
    """A provably stable top-k stops the stream without changing it."""

    @pytest.fixture
    def lopsided_world(self):
        """Big-score source first, small bounded-score sources behind it.

        ``Loud`` ranks with ScaledCosine (ScoreRange 0–1000, real scores
        well above 1); the ``Quiet-*`` sources advertise ScoreRange 0–1.
        Under raw-score merging, once Loud's documents are in, no Quiet
        source can beat them — the stream must stop before querying the
        Quiet stragglers.
        """
        from repro.corpus import source1_documents, source2_documents
        from repro.engine.ranking import ScaledCosine
        from repro.engine.search import SearchEngine

        internet = SimulatedInternet(seed=4)
        loud = StartsSource(
            "A-Loud",
            source1_documents(),
            engine=SearchEngine(ranking=ScaledCosine()),
            base_url="http://loud.org/s",
        )
        quiet = [
            StartsSource(
                f"B-Quiet-{index}",
                source2_documents(),
                base_url=f"http://quiet{index}.org/s",
            )
            for index in range(3)
        ]
        resource = Resource("Lopsided", [loud, *quiet])
        publish_resource(
            internet,
            resource,
            "http://lopsided.org",
            source_profiles={
                source.source_id: HostProfile(latency_ms=20.0, jitter_ms=0.0)
                for source in [loud, *quiet]
            },
        )
        searcher = Metasearcher(
            internet,
            ["http://lopsided.org/resource"],
            merger=RawScoreMerge(),
            cache_policy=CachePolicy.disabled(),
        )
        searcher.refresh()
        return searcher

    def _query(self):
        return SQuery(
            ranking_expression=parse_expression('(body-of-text "databases")'),
            max_number_documents=2,
        )

    def test_stops_early_and_cancels_pending(self, lopsided_world):
        final = final_emission(
            lopsided_world.search_stream(
                self._query(), k_sources=4, executor=SerialExecutor()
            )
        )
        assert final.terminated_early
        cancelled = [
            sid
            for sid, outcome in final.result.outcomes.items()
            if outcome.status is OutcomeStatus.CANCELLED
        ]
        assert cancelled, "expected at least one cancelled straggler"
        # The serial executor streams lazily: a cancelled source's query
        # never went out at all.
        assert all(
            not final.result.outcomes[sid].attempts for sid in cancelled
        )

    def test_early_rank_matches_full_batch(self, lopsided_world):
        streamed = final_emission(
            lopsided_world.search_stream(
                self._query(), k_sources=4, executor=SerialExecutor()
            )
        ).result
        # Fresh identical world for the batch oracle over all sources.
        from repro.corpus import source1_documents, source2_documents
        from repro.engine.ranking import ScaledCosine
        from repro.engine.search import SearchEngine

        internet = SimulatedInternet(seed=4)
        loud = StartsSource(
            "A-Loud",
            source1_documents(),
            engine=SearchEngine(ranking=ScaledCosine()),
            base_url="http://loud.org/s",
        )
        quiet = [
            StartsSource(
                f"B-Quiet-{index}",
                source2_documents(),
                base_url=f"http://quiet{index}.org/s",
            )
            for index in range(3)
        ]
        publish_resource(
            internet,
            Resource("Lopsided", [loud, *quiet]),
            "http://lopsided.org",
            source_profiles={
                source.source_id: HostProfile(latency_ms=20.0, jitter_ms=0.0)
                for source in [loud, *quiet]
            },
        )
        oracle = Metasearcher(
            internet,
            ["http://lopsided.org/resource"],
            merger=RawScoreMerge(),
            cache_policy=CachePolicy.disabled(),
        )
        oracle.refresh()
        batch = oracle.search(self._query(), k_sources=4, executor=SerialExecutor())
        assert rank_of(streamed) == rank_of(batch)

    def test_early_stop_off_queries_everyone(self, lopsided_world):
        final = final_emission(
            lopsided_world.search_stream(
                self._query(), k_sources=4, executor=SerialExecutor(),
                early_stop=False,
            )
        )
        assert not final.terminated_early
        assert all(outcome.ok for outcome in final.result.outcomes.values())


class TestDeadline:
    def test_deadline_cancels_stragglers(self):
        policy = QueryPolicy(timeout_ms=500.0)
        searcher = build_searcher(9, policy)
        emissions = list(
            searcher.search_stream(
                ranking_query(),
                k_sources=5,
                executor=SerialExecutor(),
                deadline_ms=0.0,
            )
        )
        final = emissions[-1]
        assert final.terminated_early
        statuses = {o.status for o in final.result.outcomes.values()}
        assert OutcomeStatus.CANCELLED in statuses
        # One emission for the first source, then the final wrap-up.
        assert len(emissions) == 2


class TestCacheInterplay:
    def test_second_stream_serves_from_cache(self):
        policy = QueryPolicy(timeout_ms=500.0)
        federation = build_federation(
            FederationSpec(n_sources=4, docs_per_source=10, n_queries=2, seed=21)
        )
        searcher = Metasearcher(
            federation.internet, [RESOURCE_URL], query_policy=policy
        )
        searcher.refresh()
        first = final_emission(
            searcher.search_stream(ranking_query(), k_sources=3, early_stop=False)
        )
        assert first.result.cache_status is None
        second = final_emission(
            searcher.search_stream(ranking_query(), k_sources=3, early_stop=False)
        )
        assert second.result.cache_status == "hit"
        assert rank_of(second.result) == rank_of(first.result)

    def test_early_terminated_round_is_not_cached(self):
        policy = QueryPolicy(timeout_ms=500.0)
        federation = build_federation(
            FederationSpec(n_sources=4, docs_per_source=10, n_queries=2, seed=22)
        )
        searcher = Metasearcher(
            federation.internet, [RESOURCE_URL], query_policy=policy
        )
        searcher.refresh()
        first = final_emission(
            searcher.search_stream(
                ranking_query(), k_sources=3, deadline_ms=0.0
            )
        )
        assert first.terminated_early
        second = final_emission(
            searcher.search_stream(ranking_query(), k_sources=3, early_stop=False)
        )
        assert second.result.cache_status is None
