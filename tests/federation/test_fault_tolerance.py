"""Partial results over a misbehaving federation (acceptance scenario).

One search over four sources — two healthy, one dead, one hanging —
must return merged results from the survivors while both failures are
recorded as :class:`SourceOutcome` entries, with retries, backoff,
bounded timeouts and money spent all visible in the trace.
"""

import pytest

from repro.corpus import source1_documents, source2_documents
from repro.federation import (
    AsyncExecutor,
    OutcomeStatus,
    QueryPolicy,
    SerialExecutor,
)
from repro.metasearch import Metasearcher, SelectAll
from repro.resource import Resource
from repro.source import SourceCapabilities, StartsSource
from repro.starts import SQuery, parse_expression
from repro.transport import (
    FaultProfile,
    HostProfile,
    SimulatedInternet,
    publish_resource,
)

POLICY = QueryPolicy(timeout_ms=500.0, max_retries=2, backoff_base_ms=10.0)


def ranking_query() -> SQuery:
    return SQuery(
        ranking_expression=parse_expression('list((body-of-text "databases"))')
    )


@pytest.fixture
def troubled_world():
    """Two healthy sources, one dead, one hanging — faults post-discovery."""
    internet = SimulatedInternet(seed=9)
    resource = Resource(
        "Troubled",
        [
            StartsSource("GoodA", source1_documents(), base_url="http://gooda.org/s"),
            StartsSource("GoodB", source2_documents(), base_url="http://goodb.org/s"),
            StartsSource("Dead", source1_documents(), base_url="http://dead.org/s"),
            StartsSource("Hang", source2_documents(), base_url="http://hang.org/s"),
        ],
    )
    publish_resource(
        internet,
        resource,
        "http://troubled.org",
        source_profiles={
            source_id: HostProfile(latency_ms=20.0, jitter_ms=0.0)
            for source_id in ("GoodA", "GoodB", "Hang")
        }
        | {"Dead": HostProfile(latency_ms=20.0, jitter_ms=0.0, cost_per_query=5.0)},
    )
    searcher = Metasearcher(
        internet, ["http://troubled.org/resource"], query_policy=POLICY
    )
    searcher.refresh()
    # The outage starts after discovery, so the query round meets it.
    internet.set_fault_profile("dead.org", FaultProfile.dead())
    internet.set_fault_profile("hang.org", FaultProfile.hangs(hang_ms=10_000.0))
    return internet, searcher


class TestPartialResults:
    def test_survivors_merge_while_failures_are_recorded(self, troubled_world):
        internet, searcher = troubled_world
        result = searcher.search(
            ranking_query(),
            k_sources=4,
            selector=SelectAll(),
            executor=AsyncExecutor(),
        )

        # The search did not abort: the healthy sources merged.
        assert result.documents
        assert set(result.ok_sources()) == {"GoodA", "GoodB"}
        assert set(result.per_source_results) == {"GoodA", "GoodB"}
        assert set(result.failed_sources()) == {"Dead", "Hang"}
        assert result.outcome_counts() == {"ok": 2, "error": 1, "timeout": 1}

        dead = result.outcomes["Dead"]
        assert dead.status is OutcomeStatus.ERROR
        assert dead.requests == 3 and dead.retries == 2
        assert dead.cost == pytest.approx(15.0)  # failed attempts still paid

        hang = result.outcomes["Hang"]
        assert hang.status is OutcomeStatus.TIMEOUT
        # 500 + 10 backoff + 500 + 20 backoff + 500: bounded patience.
        assert hang.elapsed_ms == pytest.approx(1530.0)

    def test_explain_trace_renders_the_whole_story(self, troubled_world):
        _, searcher = troubled_world
        result = searcher.search(
            ranking_query(), k_sources=4, selector=SelectAll()
        )
        rendered = result.explain()
        for expected in (
            "GoodA",
            "Dead: error after 3 request(s) (2 retries)",
            "Hang: timeout",
            "backoff",
            "cost",
            "query:Dead",
            "select",
            "merge",
        ):
            assert expected in rendered, f"missing {expected!r} in:\n{rendered}"

    def test_failure_accounting_reaches_the_network_log(self, troubled_world):
        internet, searcher = troubled_world
        internet.reset_log()
        searcher.search(ranking_query(), k_sources=4, selector=SelectAll())
        # 3 failed attempts on Dead + 3 timeouts on Hang.
        assert sum(record.status != "ok" for record in internet.log) == 6


class TestGarbledSource:
    """One source of four answers bytes that are not a result stream:
    its outcome is ``error``, the request is still charged, and the
    other three sources' answer is merged as if it had not been asked."""

    SOURCES = ("A", "B", "C", "Garbled")

    def world(self, garbage: bytes):
        internet = SimulatedInternet(seed=9)
        resource = Resource(
            "Noisy",
            [
                StartsSource(
                    name,
                    source1_documents() if index % 2 else source2_documents(),
                    base_url=f"http://{name.lower()}.org/s",
                )
                for index, name in enumerate(self.SOURCES)
            ],
        )
        publish_resource(
            internet,
            resource,
            "http://noisy.org",
            source_profiles={
                name: HostProfile(latency_ms=20.0, jitter_ms=0.0, cost_per_query=1.0)
                for name in self.SOURCES
            },
        )
        searcher = Metasearcher(internet, ["http://noisy.org/resource"])
        searcher.refresh()
        expected = searcher.search(ranking_query(), k_sources=3, selector=SelectAll())
        assert expected.ok_sources() == ["A", "B", "C"]
        # The source goes bad after discovery, so the query round meets it.
        internet.register_post("http://garbled.org/s/query", lambda body: garbage)
        return searcher, expected

    @pytest.mark.parametrize("garbage", [b"\xff\xfe garbage", b"@SQResults{"])
    @pytest.mark.parametrize("executor", [SerialExecutor, AsyncExecutor])
    @pytest.mark.parametrize("streamed", [False, True], ids=["batch", "stream"])
    def test_the_other_three_sources_still_answer(self, garbage, executor, streamed):
        searcher, expected = self.world(garbage)
        arguments = dict(k_sources=4, selector=SelectAll(), executor=executor())
        if streamed:
            *_, last = searcher.search_stream(ranking_query(), **arguments)
            result = last.result
        else:
            result = searcher.search(ranking_query(), **arguments)

        assert result.failed_sources() == ["Garbled"]
        garbled = result.outcomes["Garbled"]
        assert garbled.status is OutcomeStatus.ERROR
        assert "SOIF" in garbled.error
        assert garbled.requests == 1 and garbled.cost == pytest.approx(1.0)
        assert garbled.elapsed_ms == pytest.approx(20.0)
        assert sorted(result.ok_sources()) == ["A", "B", "C"]
        assert [(d.linkage, d.score) for d in result.documents] == [
            (d.linkage, d.score) for d in expected.documents
        ]


class TestDiscoveryTolerance:
    def test_refresh_skips_unreachable_sources(self):
        internet = SimulatedInternet(seed=2)
        resource = Resource(
            "Partial",
            [
                StartsSource("Up", source1_documents(), base_url="http://up.org/s"),
                StartsSource("Down", source2_documents(), base_url="http://down.org/s"),
            ],
        )
        publish_resource(
            internet,
            resource,
            "http://partial.org",
            source_faults={"Down": FaultProfile.dead()},
        )
        searcher = Metasearcher(internet, ["http://partial.org/resource"])
        known = searcher.refresh()
        assert [source.source_id for source in known] == ["Up"]
        assert "Down" in searcher.discovery.unreachable

        result = searcher.search(ranking_query(), k_sources=2)
        assert result.selected_sources == ["Up"]
        assert result.documents


class TestSkipPath:
    def test_untranslatable_source_is_skipped_on_record(self):
        """A ranking-only query to a filter-only source: no round trip,
        a SKIPPED outcome, and the merge still succeeds."""
        internet = SimulatedInternet(seed=6)
        resource = Resource(
            "Mixed",
            [
                StartsSource(
                    "FOnly",
                    source1_documents(),
                    base_url="http://fonly.org/s",
                    capabilities=SourceCapabilities(query_parts="F"),
                ),
                StartsSource(
                    "Full", source2_documents(), base_url="http://full.org/s"
                ),
            ],
        )
        publish_resource(internet, resource, "http://mixed.org")
        searcher = Metasearcher(internet, ["http://mixed.org/resource"])
        searcher.refresh()
        internet.reset_log()

        result = searcher.search(ranking_query(), k_sources=2, selector=SelectAll())

        skipped = result.outcomes["FOnly"]
        assert skipped.status is OutcomeStatus.SKIPPED
        assert skipped.requests == 0 and skipped.elapsed_ms == 0.0
        assert "translation" in (skipped.skip_reason or "")
        assert result.skipped_sources() == ["FOnly"]
        assert result.ok_sources() == ["Full"]
        assert result.outcome_counts() == {"ok": 1, "skipped": 1}
        # No wire traffic went to the skipped source.
        assert internet.request_count("fonly.org") == 0
        assert "skipped" in result.explain()
