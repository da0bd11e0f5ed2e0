"""EX1–EX12: the paper's twelve worked examples, end to end.

Each test reproduces one numbered example from the paper using the full
stack — the exact expressions, SOIF layouts and protocol behaviours the
paper prints.  Together with the attribute-table tests these are the
reproduction's golden targets (see DESIGN.md §3).
"""

from repro.corpus import source1_documents
from repro.engine import fields as F
from repro.engine.documents import Document
from repro.source import SourceCapabilities, StartsSource
from repro.starts import (
    SQuery,
    SQResults,
    SProx,
    parse_expression,
    parse_soif,
)
from repro.starts.metadata import SContentSummary, SMetaAttributes, SResource


class TestExample1:
    """Filter + ranking expression semantics."""

    # Example 1 prints an exact-match title term; the canned Source-1
    # document (titled "... Database Systems", Example 8) only matches
    # the stemmed variant the paper itself uses in Example 6, so the
    # golden test uses that form.  Example 2's tests cover the exact
    # vs. stemmed distinction explicitly.
    FILTER = '((author "Ullman") and (title stem "databases"))'
    RANKING = 'list((body-of-text "distributed") (body-of-text "databases"))'

    def test_query_returns_ullman_databases_documents(self, source1):
        query = SQuery(
            filter_expression=parse_expression(self.FILTER),
            ranking_expression=parse_expression(self.RANKING),
        )
        results = source1.search(query)
        assert len(results.documents) == 1
        doc = results.documents[0]
        assert "Ullman" in source1.engine.store[0].author
        assert doc.linkage == "http://www-db.stanford.edu/~ullman/pub/dood.ps"

    def test_documents_failing_filter_excluded(self, source1):
        """The Gravano/Chang distractors match ranking words but not the
        author filter."""
        query = SQuery(
            filter_expression=parse_expression(self.FILTER),
            ranking_expression=parse_expression(self.RANKING),
        )
        linkages = [d.linkage for d in source1.search(query).documents]
        assert all("ullman" in linkage for linkage in linkages)


class TestExample2:
    """(title stem "databases") matches titles containing "database"."""

    def test_stem_matches_singular_title(self, source1):
        query = SQuery(filter_expression=parse_expression('(title stem "databases")'))
        linkages = {d.linkage for d in source1.search(query).documents}
        # The Ullman title says "Database Systems" (singular) and the
        # GlOSS distractor says "Databases": both match under stem.
        assert "http://www-db.stanford.edu/~ullman/pub/dood.ps" in linkages
        assert "http://www-db.stanford.edu/pub/gravano95.ps" in linkages

    def test_without_stem_singular_title_missed(self, source1):
        query = SQuery(filter_expression=parse_expression('(title "databases")'))
        linkages = {d.linkage for d in source1.search(query).documents}
        assert "http://www-db.stanford.edu/~ullman/pub/dood.ps" not in linkages


class TestExample3:
    """(t1 prox[3,T] t2): t1 before t2, at most 3 words between."""

    def test_prox_parses_and_filters(self, source1):
        node = parse_expression(
            '((body-of-text "deductive") prox[3,T] (body-of-text "object"))'
        )
        assert isinstance(node, SProx)
        query = SQuery(filter_expression=node)
        results = source1.search(query)
        # "deductive databases with object-oriented": 2 words between.
        assert len(results.documents) == 1

    def test_order_enforced(self, source1):
        node = parse_expression(
            '((body-of-text "object") prox[3,T] (body-of-text "deductive"))'
        )
        assert source1.search(SQuery(filter_expression=node)).documents == ()


class TestExample4:
    """Fuzzy-operator vs list semantics for the same terms."""

    def test_and_and_list_rank_differently(self, source1):
        r1 = SQuery(
            ranking_expression=parse_expression('("distributed" and "databases")')
        )
        r2 = SQuery(
            ranking_expression=parse_expression('list("distributed" "databases")')
        )
        score_and = {d.linkage: d.raw_score for d in source1.search(r1).documents}
        score_list = {d.linkage: d.raw_score for d in source1.search(r2).documents}
        ullman = "http://www-db.stanford.edu/~ullman/pub/dood.ps"
        assert score_and[ullman] != score_list[ullman]


class TestExample5:
    """Weighted ranking terms tilt the ordering."""

    def test_weights_change_scores(self, source1):
        heavy = SQuery(
            ranking_expression=parse_expression(
                'list(("distributed" 0.7) ("databases" 0.3))'
            )
        )
        light = SQuery(
            ranking_expression=parse_expression(
                'list(("distributed" 0.3) ("databases" 0.7))'
            )
        )
        ullman = "http://www-db.stanford.edu/~ullman/pub/dood.ps"
        heavy_score = {
            d.linkage: d.raw_score for d in source1.search(heavy).documents
        }[ullman]
        light_score = {
            d.linkage: d.raw_score for d in source1.search(light).documents
        }[ullman]
        assert heavy_score != light_score


class TestExample6:
    """The complete SOIF-encoded query."""

    def test_wire_encoding_round_trips(self, example6_query):
        parsed = SQuery.from_soif(parse_soif(example6_query.to_soif().dump()))
        assert parsed == example6_query

    def test_min_score_and_max_documents_applied(self, source1, example6_query):
        results = source1.search(example6_query)
        assert len(results.documents) <= 10
        for doc in results.documents:
            assert doc.raw_score >= 0.5 or example6_query.ranking_expression is None


class TestExample7:
    """A source without ranking support reports the actual query."""

    def test_actual_query_reporting(self):
        source = StartsSource(
            "Source-F",
            source1_documents(),
            capabilities=SourceCapabilities(query_parts="F"),
        )
        query = SQuery(
            filter_expression=parse_expression(
                '((author "Ullman") and (title stem "databases"))'
            ),
            ranking_expression=parse_expression(
                'list((body-of-text "distributed") (body-of-text "databases"))'
            ),
        )
        results = source.search(query)
        assert results.actual_filter_expression is not None
        assert results.actual_ranking_expression is None
        assert results.actual_filter_expression.serialize() == (
            '((author "Ullman") and (title stem "databases"))'
        )


class TestExample8:
    """The result stream: RawScore, TermStats, DocSize, DocCount."""

    def test_result_stream_shape(self, source1, example6_query):
        from dataclasses import replace

        query = replace(example6_query, min_document_score=0.0)
        stream = source1.search(query).to_soif_stream()
        parsed = SQResults.from_soif_stream(stream)
        assert parsed.sources == ("Source-1",)
        document = parsed.documents[0]
        assert document.linkage == "http://www-db.stanford.edu/~ullman/pub/dood.ps"
        assert document.fields["title"].startswith("A Comparison")
        assert document.doc_count > 0 and document.doc_size >= 1
        stats = {s.term.lstring.text: s for s in document.term_stats}
        assert stats["distributed"].term_frequency > 0
        assert stats["databases"].document_frequency >= 1

    def test_stop_word_elimination_visible_in_actual_query(self):
        """Example 8's twist: Source-1 eliminated "distributed" as a stop
        word, visible in ActualRankingExpression."""
        from repro.text.analysis import Analyzer
        from repro.text.stopwords import StopWordList
        from repro.engine.search import SearchEngine

        stop = StopWordList(["the", "distributed"], name="quirky")
        engine = SearchEngine(analyzer=Analyzer(stop_words={"en": stop}))
        source = StartsSource("Source-1", source1_documents(), engine=engine)
        query = SQuery(
            ranking_expression=parse_expression(
                'list((body-of-text "distributed") (body-of-text "databases"))'
            )
        )
        results = source.search(query)
        actual = results.actual_ranking_expression
        assert actual is not None
        assert [t.lstring.text for t in actual.terms()] == ["databases"]


class TestExample9:
    """Statistics-based re-ranking flips the sources' raw order."""

    def test_source2_document_has_higher_tf_but_lower_raw_score(
        self, source1, source2
    ):
        query = SQuery(
            ranking_expression=parse_expression(
                'list((body-of-text "distributed") (body-of-text "databases"))'
            )
        )
        res1 = source1.search(query)
        res2 = source2.search(query)
        ullman = next(
            d for d in res1.documents if "ullman" in d.linkage
        )
        lagunita = next(d for d in res2.documents if "lagunita" in d.linkage)

        tf = lambda doc: sum(s.term_frequency for s in doc.term_stats)
        # The Lagunita document repeats the query words more often...
        assert tf(lagunita) > tf(ullman)
        # ...so TF-based re-ranking puts it first regardless of raw scores.
        re_ranked = sorted([ullman, lagunita], key=tf, reverse=True)
        assert re_ranked[0].linkage == lagunita.linkage


class TestExample10:
    """Source metadata attributes on the wire."""

    def test_metadata_export_round_trips(self, source1):
        metadata = source1.metadata()
        parsed = SMetaAttributes.from_soif(parse_soif(metadata.to_soif().dump()))
        assert parsed == metadata
        assert parsed.source_id == "Source-1"
        assert parsed.query_parts_supported == "RF"
        assert parsed.score_range == (0.0, 1.0)
        assert parsed.ranking_algorithm_id == "Acme-1"
        assert parsed.linkage.endswith("/query")
        assert parsed.content_summary_linkage.endswith("/cont_sum.txt")


def bilingual_documents() -> list[Document]:
    """An English/Spanish mini-collection for the Example 11 summary."""
    english = [
        Document(
            f"http://bilingual.example.org/en{i}.html",
            {
                F.TITLE: title,
                F.AUTHOR: "Maria Rivera",
                F.BODY_OF_TEXT: body,
                F.DATE_LAST_MODIFIED: "1996-02-10",
            },
            language="en",
        )
        for i, (title, body) in enumerate(
            [
                ("Algorithm Analysis", "An algorithm for analysis of sorting."),
                ("Graph Algorithm Survey", "Every algorithm surveyed with analysis."),
            ]
        )
    ]
    spanish = [
        Document(
            f"http://bilingual.example.org/es{i}.html",
            {
                F.TITLE: title,
                F.AUTHOR: "Oscar Navarro",
                F.BODY_OF_TEXT: body,
                F.DATE_LAST_MODIFIED: "1996-03-05",
            },
            language="es",
        )
        for i, (title, body) in enumerate(
            [
                ("Algoritmo y datos", "Un algoritmo para datos distribuidos."),
                ("Datos y consultas", "Consultas sobre datos en redes."),
            ]
        )
    ]
    return english + spanish


class TestExample11:
    """Bilingual content summary with per-field, per-language sections."""

    def test_bilingual_summary_sections(self):
        from repro.vendors import build_vendor_source

        source = build_vendor_source("MundoDocs", "Source-Bi", bilingual_documents())
        summary = source.content_summary()
        parsed = SContentSummary.from_soif(parse_soif(summary.to_soif().dump()))
        assert parsed.num_docs == 4
        languages = {section.language for section in parsed.sections}
        assert {"en", "es"} <= languages
        assert parsed.document_frequency("algoritmo", field=F.TITLE) == 1
        assert parsed.document_frequency("algorithm", field=F.TITLE) >= 1


class TestExample12:
    """The resource's source list with metadata URLs."""

    def test_resource_definition(self, paper_resource):
        described = paper_resource.describe()
        parsed = SResource.from_soif(parse_soif(described.to_soif().dump()))
        assert parsed.source_ids() == ["Source-1", "Source-2"]
        for source_id in parsed.source_ids():
            assert parsed.metadata_url(source_id).startswith("http://")
