"""StartsSource: answer specification, metadata export, summaries."""

from dataclasses import replace

import pytest

from repro.corpus import source1_documents
from repro.engine.documents import Document
from repro.engine.search import SearchEngine
from repro.observability.metrics import MetricsRegistry, set_registry
from repro.source import SourceCapabilities, StartsSource
from repro.starts import SQuery, parse_expression
from repro.starts.query import SortKey


@pytest.fixture
def ranking_query():
    return SQuery(
        ranking_expression=parse_expression(
            'list((body-of-text "distributed") (body-of-text "databases"))'
        ),
        answer_fields=("title", "author"),
    )


class TestAnswerSpecification:
    def test_answer_fields_returned(self, source1, ranking_query):
        doc = source1.search(ranking_query).documents[0]
        assert "title" in doc.fields
        assert "author" in doc.fields

    def test_unrequested_fields_omitted(self, source1, ranking_query):
        query = replace(ranking_query, answer_fields=("title",))
        doc = source1.search(query).documents[0]
        assert "author" not in doc.fields

    def test_linkage_always_returned(self, source1, ranking_query):
        query = replace(ranking_query, answer_fields=("title",))
        doc = source1.search(query).documents[0]
        assert doc.linkage

    def test_max_number_documents(self, source1, ranking_query):
        query = replace(ranking_query, max_number_documents=1)
        assert len(source1.search(query).documents) == 1

    def test_max_number_documents_zero_evaluates_nothing(self, source1, ranking_query):
        """``MaxNumberDocuments 0`` is answered by the header alone: the
        engine walks no posting, and the bytes are those a full
        evaluation truncated to nothing gave."""
        registry = set_registry(MetricsRegistry())
        try:
            answer = source1.respond(replace(ranking_query, max_number_documents=0))
            counters = {family.name for family in registry.families()}
            assert not counters & {
                "engine_postings_walked_total",
                "engine_postings_skipped_total",
                "engine_blocks_skipped_total",
            }
        finally:
            set_registry(MetricsRegistry())
        assert answer == (
            b"@SQResults{\nVersion{10}: STARTS 1.0\nSources{8}: Source-1\n"
            b'ActualRankingExpression{61}: list((body-of-text "distributed")'
            b' (body-of-text "databases"))\nNumDocSOIFs{1}: 0\n}\n'
        )

    def test_min_document_score_filters(self, source1, ranking_query):
        unfiltered = source1.search(ranking_query)
        top = unfiltered.documents[0].raw_score
        query = replace(ranking_query, min_document_score=top)
        results = source1.search(query)
        assert all(d.raw_score >= top for d in results.documents)
        assert len(results.documents) < len(unfiltered.documents)

    def test_default_sort_is_score_descending(self, source1, ranking_query):
        scores = [d.raw_score for d in source1.search(ranking_query).documents]
        assert scores == sorted(scores, reverse=True)

    def test_field_sort(self, source1, ranking_query):
        query = replace(ranking_query, sort_keys=(SortKey("title", descending=False),))
        titles = [d.fields["title"] for d in source1.search(query).documents]
        assert titles == sorted(titles)

    def test_field_sort_on_a_field_not_asked_back(self):
        """SortByFields title with AnswerFields author still orders by
        title: the sort reads the stored document, not the answer."""
        source = StartsSource(
            "S",
            [
                Document("http://x/zeta", {"title": "zeta", "body-of-text": "data data"}),
                Document("http://x/alpha", {"title": "alpha", "body-of-text": "data x y"}),
            ],
        )
        query = SQuery(
            ranking_expression=parse_expression('(body-of-text "data")'),
            answer_fields=("author",),
            sort_keys=(SortKey("title", descending=False),),
        )
        by_score = source.search(replace(query, sort_keys=())).documents
        assert [d.linkage for d in by_score] == ["http://x/zeta", "http://x/alpha"]
        by_title = source.search(query).documents
        assert [d.linkage for d in by_title] == ["http://x/alpha", "http://x/zeta"]
        assert all("title" not in d.fields for d in by_title)

    def test_result_cap_applies(self):
        source = StartsSource(
            "Capped",
            source1_documents(),
            capabilities=SourceCapabilities(result_cap=1),
        )
        query = SQuery(
            ranking_expression=parse_expression('list((body-of-text "databases"))'),
            max_number_documents=10,
        )
        assert len(source.search(query).documents) == 1

    def test_truncated_results_are_prefix_of_untruncated(self, source1, ranking_query):
        """Engine-side top-k truncation (the default, score-descending
        sort) must return exactly the head of the full result."""
        full = source1.search(ranking_query).documents
        for limit in (1, 2, len(full)):
            truncated = source1.search(
                replace(ranking_query, max_number_documents=limit)
            ).documents
            assert truncated == full[:limit]

    def test_non_score_sort_not_truncated_early(self, source1, ranking_query):
        """A custom sort order must see the whole result before the
        answer limit applies — top-k by score would pick wrong docs."""
        ascending = replace(
            ranking_query,
            sort_keys=(SortKey("score", descending=False),),
            max_number_documents=1,
        )
        full = source1.search(replace(ranking_query, max_number_documents=50))
        worst = min(d.raw_score for d in full.documents)
        results = source1.search(ascending)
        assert len(results.documents) == 1
        assert results.documents[0].raw_score == worst

    def test_min_score_composes_with_truncation(self, source1, ranking_query):
        full = source1.search(ranking_query).documents
        cutoff = full[1].raw_score
        query = replace(
            ranking_query, min_document_score=cutoff, max_number_documents=1
        )
        results = source1.search(query).documents
        assert [d.linkage for d in results] == [full[0].linkage]


class TestProtocolBehaviour:
    def test_invalid_query_rejected(self, source1):
        from repro.starts.errors import ProtocolError

        with pytest.raises(ProtocolError):
            source1.search(SQuery())

    def test_untranslatable_query_returns_empty_results(self):
        source = StartsSource(
            "RankOnly",
            source1_documents(),
            capabilities=SourceCapabilities(query_parts="R"),
        )
        query = SQuery(filter_expression=parse_expression('(title "databases")'))
        results = source.search(query)
        assert results.documents == ()
        assert results.actual_filter_expression is None

    def test_sources_attribute_names_this_source(self, source1, ranking_query):
        results = source1.search(ranking_query)
        assert results.sources == ("Source-1",)
        for doc in results.documents:
            assert doc.sources == ("Source-1",)

    def test_stateless_repeated_queries_identical(self, source1, ranking_query):
        first = source1.search(ranking_query)
        second = source1.search(ranking_query)
        assert first == second

    def test_boolean_only_engine_downgrades_declared_parts(self):
        source = StartsSource(
            "Grep",
            source1_documents(),
            engine=SearchEngine(ranking=None),
            capabilities=SourceCapabilities(query_parts="RF"),
        )
        assert source.capabilities.query_parts == "F"


class TestMetadataExport:
    def test_metadata_reflects_capabilities(self, source1):
        metadata = source1.metadata()
        assert metadata.supports_field("author")
        assert metadata.turn_off_stop_words
        assert metadata.score_range == (0.0, 1.0)

    def test_restricted_capabilities_visible(self):
        source = StartsSource(
            "Limited",
            source1_documents(),
            capabilities=SourceCapabilities.full_basic1().without_fields("author"),
        )
        assert not source.metadata().supports_field("author")

    def test_stop_word_list_exported(self, source1):
        assert "the" in source1.metadata().stop_word_list

    def test_urls_derive_from_base(self):
        source = StartsSource("S", source1_documents(), base_url="http://h.org/s")
        metadata = source.metadata()
        assert metadata.linkage == "http://h.org/s/query"
        assert metadata.content_summary_linkage == "http://h.org/s/cont_sum.txt"
        assert metadata.sample_database_results == "http://h.org/s/sample"

    def test_optional_attributes_passed_through(self):
        source = StartsSource(
            "S",
            source1_documents(),
            abstract="CS papers",
            contact="admin@example.org",
            access_constraints="none",
            date_changed="1996-03-31",
        )
        metadata = source.metadata()
        assert metadata.abstract == "CS papers"
        assert metadata.contact == "admin@example.org"
        assert metadata.date_changed == "1996-03-31"


class TestContentSummary:
    def test_summary_counts_documents(self, source1):
        assert source1.content_summary().num_docs == 3

    def test_summary_contains_body_words(self, source1):
        summary = source1.content_summary()
        assert summary.document_frequency("databases") > 0

    def test_truncation_keeps_most_frequent(self, source1):
        full = source1.content_summary()
        small = source1.content_summary(max_words_per_section=3)
        entries = lambda summary: sum(len(s.entries) for s in summary.sections)
        assert entries(small) < entries(full)
        # The dominant body word survives truncation.
        assert small.document_frequency("databases") > 0


class TestSampleResults:
    def test_sample_results_round_trip(self, source1):
        from repro.source.sample import SampleResults
        from repro.starts.soif import parse_soif

        sample = source1.sample_results()
        parsed = SampleResults.from_soif(parse_soif(sample.to_soif().dump()))
        assert parsed == sample

    def test_scores_respect_engine_range(self, source1):
        sample = source1.sample_results()
        for score in sample.all_scores():
            assert 0.0 <= score <= 1.0

    def test_computed_once_per_source_and_equal_to_a_fresh_run(self, source1, monkeypatch):
        from repro.source import sample, source as source_module

        runs = []
        monkeypatch.setattr(
            source_module,
            "run_sample_queries",
            lambda factory: runs.append(1) or sample.run_sample_queries(factory),
        )
        assert runs == []  # not at construction
        first = source1.sample_results()
        assert source1.sample_results() is first
        assert runs == [1]
        source1.add_documents(source1_documents())  # never depends on the collection
        assert source1.sample_results() is first
        assert first == sample.run_sample_queries(
            lambda: SearchEngine(analyzer=source1.analyzer, ranking=source1.engine.ranking)
        )

    def test_recomputed_after_the_engine_is_swapped(self, source1):
        from repro.engine.ranking import Bm25

        cosine = source1.sample_results()
        source1.engine = SearchEngine(ranking=Bm25())
        swapped = source1.sample_results()
        assert swapped != cosine
        assert swapped == StartsSource("Fresh", engine=SearchEngine(ranking=Bm25())).sample_results()

    def test_sample_collection_is_generated_once_per_process(self):
        from repro.source.sample import sample_collection

        assert len(sample_collection()) == 40
        assert sample_collection() is sample_collection()  # an immutable tuple
