"""The Document-text and Free-form-text fields, end to end."""

from repro.corpus import source1_documents
from repro.source import SourceCapabilities, StartsSource
from repro.starts import SQuery, parse_expression
from repro.vendors import build_vendor_source


class TestDocumentTextFeedback:
    """§4.1.1: "The Document-text field provides a way to pass documents
    to the sources as part of the queries, which could be useful to do
    relevance feedback"."""

    FEEDBACK = (
        "deductive databases compared with object-oriented databases for "
        "distributed query processing"
    )

    def test_feedback_ranks_similar_document_first(self, source1):
        query = SQuery(
            ranking_expression=parse_expression(f'(document-text "{self.FEEDBACK}")')
        )
        results = source1.search(query)
        assert results.documents
        assert results.documents[0].linkage.endswith("dood.ps")

    def test_feedback_in_filter_position_is_disjunctive(self, source1):
        query = SQuery(
            filter_expression=parse_expression(f'(document-text "{self.FEEDBACK}")')
        )
        results = source1.search(query)
        # Every Source-1 document shares at least one salient word.
        assert len(results.documents) >= 2

    def test_stop_words_do_not_pollute_feedback(self, source1):
        query = SQuery(
            ranking_expression=parse_expression(
                '(document-text "the and of databases")'
            )
        )
        results = source1.search(query)
        # Only "databases" is salient; documents without it score 0 and
        # are excluded.
        for document in results.documents:
            assert any(
                stats.term_frequency > 0 for stats in document.term_stats
            )

    def test_unsupported_document_text_dropped(self):
        source = StartsSource(
            "NoFeedback",
            source1_documents(),
            capabilities=SourceCapabilities.full_basic1().without_fields(
                "document-text"
            ),
        )
        query = SQuery(
            ranking_expression=parse_expression('(document-text "databases")')
        )
        results = source.search(query)
        assert results.actual_ranking_expression is None
        assert results.documents == ()


class TestFreeFormText:
    """§4.1.1: Free-form-text passes native queries through "so that
    informed metasearchers could use the sources' richer native query
    languages"."""

    def test_infix_native_query(self):
        source = build_vendor_source("AcmeSearch", "S", source1_documents())
        query = SQuery(
            filter_expression=parse_expression(
                '(free-form-text "author:Ullman AND databases")'
            )
        )
        results = source.search(query)
        assert [d.linkage for d in results.documents] == [
            "http://www-db.stanford.edu/~ullman/pub/dood.ps"
        ]

    def test_actual_query_reveals_parsed_form(self):
        """The actual query shows how the source understood the native
        text — the mechanism metasearchers use to learn native
        behaviour (§4.3.1)."""
        source = build_vendor_source("AcmeSearch", "S", source1_documents())
        query = SQuery(
            filter_expression=parse_expression(
                '(free-form-text "author:Ullman AND databases")'
            )
        )
        results = source.search(query)
        actual = results.actual_filter_expression
        assert actual is not None
        assert "author" in actual.serialize()
        assert "free-form-text" not in actual.serialize()

    def test_plusminus_native_query(self):
        source = build_vendor_source("OkapiWorks", "S", source1_documents())
        query = SQuery(
            filter_expression=parse_expression(
                '(free-form-text "+databases -glimpse")'
            )
        )
        results = source.search(query)
        assert results.documents  # conjunctive positive side matched

    def test_semicolon_native_query_on_boolean_engine(self):
        source = build_vendor_source("GrepMaster", "S", source1_documents())
        query = SQuery(
            filter_expression=parse_expression(
                '(free-form-text "deductive;databases")'
            )
        )
        results = source.search(query)
        assert [d.linkage for d in results.documents] == [
            "http://www-db.stanford.edu/~ullman/pub/dood.ps"
        ]

    def test_unparseable_native_text_dropped(self):
        source = build_vendor_source("AcmeSearch", "S", source1_documents())
        query = SQuery(
            filter_expression=parse_expression('(free-form-text "((broken")')
        )
        results = source.search(query)
        assert results.actual_filter_expression is None
        assert results.documents == ()

    def test_source_without_native_syntax_drops_term(self):
        # InferNet supports the field is not declared... build a plain
        # source: full Basic-1 declares free-form-text but no syntax.
        source = StartsSource("Plain", source1_documents())
        query = SQuery(
            filter_expression=parse_expression('(free-form-text "databases")')
        )
        results = source.search(query)
        assert results.actual_filter_expression is None
