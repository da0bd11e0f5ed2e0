"""``MetasearchResult.explain()``: one view of a finished search.

``TestExplainPlan`` is what the dry-run planner's tests guarded that is
still true — every source ranked with the chosen ones marked, the
expressions each source evaluated, what translation dropped, an invalid
query refused — read from the executed round instead of a second
select + translate.  ``TestExplainContract`` is the rest of the view:
whatever way a search ended, ``explain()`` renders and names the reason.
"""

import pytest

from repro.__main__ import _print_selection
from repro.cache import QueryResultCache
from repro.corpus import source1_documents, source2_documents
from repro.federation import QueryPolicy
from repro.metasearch import Metasearcher, MetasearchResult, SelectAll
from repro.resource import Resource
from repro.source import SourceCapabilities, StartsSource
from repro.starts import SQuery, parse_expression
from repro.starts.errors import ProtocolError
from repro.transport import FaultProfile, SimulatedInternet, publish_resource


@pytest.fixture
def searcher(small_federation):
    internet, resource_url, _ = small_federation
    searcher = Metasearcher(internet, [resource_url])
    searcher.refresh()
    return searcher, internet


def ranking(*words: str) -> SQuery:
    items = " ".join(f'(body-of-text "{word}")' for word in words)
    return SQuery(ranking_expression=parse_expression(f"list({items})"))


def query():
    return ranking("databases", "patient")


class TestExplainPlan:
    def test_plan_lists_all_sources_marks_chosen(self, searcher, capsys):
        client, _ = searcher
        _print_selection(
            client, client.selector.name, client.selector, ["databases", "patient"], 2
        )
        table = capsys.readouterr().out
        for source_id in ("Fed-DB", "Fed-Med", "Fed-Net"):
            assert source_id in table
        assert table.count("*") == 2

    def test_plan_shows_translated_expressions(self, searcher):
        client, _ = searcher
        explained = client.search(query(), k_sources=1).explain()
        assert "actual ranking: list(" in explained
        assert "actual filter: (none)" in explained

    def test_plan_notes_translation_losses(self, searcher):
        client, _ = searcher
        lossy = ranking("the", "databases")
        explained = client.search(lossy, k_sources=1).explain()
        assert "translation: " in explained and "stop word" in explained
        # The source reports what it evaluated (§4.2) — not what was asked.
        (actual,) = [
            line.split(": ", 1)[1]
            for line in explained.splitlines()
            if line.startswith("  actual ranking:")
        ]
        assert '"databases"' in actual and '"the"' not in actual
        assert actual != lossy.ranking_expression.serialize()

    def test_invalid_query_rejected(self, searcher):
        client, _ = searcher
        with pytest.raises(ProtocolError):
            client.search(SQuery())


def two_source_world(second: StartsSource, seed: int = 5, **options):
    internet = SimulatedInternet(seed=seed)
    first = StartsSource("Alive", source1_documents(), base_url="http://alive.org/s")
    publish_resource(internet, Resource("Mixed", [first, second]), "http://mixed.org")
    searcher = Metasearcher(internet, ["http://mixed.org/resource"], **options)
    searcher.refresh()
    return internet, searcher


def doomed() -> StartsSource:
    return StartsSource("Doomed", source2_documents(), base_url="http://doomed.org/s")


class TestExplainContract:
    def test_a_wire_answer_carries_every_section(self, searcher):
        client, _ = searcher
        result = client.search(query(), k_sources=2)
        explained = result.explain()
        for source_id in result.selected_sources:
            assert f"{source_id}: ok after 1 request(s)" in explained
            assert f"query:{source_id}" in explained
        for section in (
            "translation: lossless",
            "span ",
            "per-source counters",
            "cache counters:",
            'query log: {"cache_hits": 0',
            f'"trace_id": "{result.trace.trace_id}"',
        ):
            assert section in explained, section

    def test_a_cache_hit_says_so_and_keeps_the_original_outcomes(self, searcher):
        client, _ = searcher
        first = client.search(query())
        explained = client.search(query()).explain()
        assert explained.startswith("result cache: hit")
        for source_id in first.selected_sources:
            assert f"{source_id}: ok" in explained
        assert "status=hit" in explained  # the cache event in the short trace
        assert "query:" not in explained  # nothing was sent

    def test_a_stale_serve_says_so(self, searcher):
        client, _ = searcher
        clock = {"now": 0.0}
        client.result_cache = QueryResultCache(
            ttl_ms=100.0, stale_grace_ms=1000.0, clock=lambda: clock["now"]
        )
        client.search(query())
        clock["now"] = 500.0
        explained = client.search(query()).explain()
        assert explained.startswith("result cache: stale")
        assert "stale_hits=1" in explained

    def test_error_timeout_and_the_negative_skip_that_follows(self):
        internet, client = two_source_world(
            doomed(), query_policy=QueryPolicy(timeout_ms=100.0)
        )
        internet.set_fault_profile("doomed.org", FaultProfile.dead())
        explained = client.search(ranking("databases"), k_sources=2).explain()
        assert "Doomed: error after 1 request(s)" in explained
        assert "status=error" in explained

        explained = client.search(ranking("stanford"), k_sources=2).explain()
        assert "Doomed: skipped (negative-cached: error on 1 recent round(s)" in explained
        assert "status=negative-skip" in explained
        assert "negative_skips=1" in explained

        client.negative_cache.forget("Doomed")
        internet.set_fault_profile("doomed.org", FaultProfile.hangs(hang_ms=5_000.0))
        explained = client.search(ranking("library"), k_sources=2).explain()
        assert "Doomed: timeout after 1 request(s)" in explained

    def test_a_translation_emptied_skip_names_its_reason(self):
        filter_only = StartsSource(
            "FOnly",
            source2_documents(),
            base_url="http://fonly.org/s",
            capabilities=SourceCapabilities(query_parts="F"),
        )
        _, client = two_source_world(filter_only, seed=6)
        explained = client.search(
            ranking("databases"), k_sources=2, selector=SelectAll()
        ).explain()
        assert "FOnly: skipped (translation left neither filter nor ranking" in explained
        assert "skipped=yes" in explained

    def test_an_early_terminated_stream_names_the_cancelled_sources(self):
        _, client = two_source_world(doomed())
        *_, final = client.search_stream(
            ranking("databases"), k_sources=2, selector=SelectAll(), deadline_ms=0.0
        )
        assert final.terminated_early
        explained = final.result.explain()
        assert ": cancelled (stream deadline expired)" in explained
        assert "early-termination" in explained
        assert '"terminated_early": true' in explained

    def test_no_trace_and_no_outcomes_still_render(self, searcher):
        assert MetasearchResult([], []).explain() == "(no trace recorded)"
        client, _ = searcher
        result = client.search(query(), k_sources=1)
        result.trace = None
        explained = result.explain()
        assert explained.endswith("(no trace recorded)")
        assert f"{result.selected_sources[0]}: ok" in explained
