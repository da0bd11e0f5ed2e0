"""Client-side translation from MBasic-1 metadata."""

import pytest

from repro.corpus import source1_documents
from repro.metasearch.translation import (
    ClientTranslator,
    capabilities_from_metadata,
    translation_target,
)
from repro.source import SourceCapabilities, StartsSource
from repro.starts import SQuery, parse_expression
from repro.vendors import build_vendor_source


def query_with_everything():
    return SQuery(
        filter_expression=parse_expression(
            '((author "Ullman") and (title stem "databases"))'
        ),
        ranking_expression=parse_expression(
            'list((body-of-text "distributed") (body-of-text "databases"))'
        ),
    )


class TestCapabilityReconstruction:
    def test_round_trip_through_metadata(self):
        """capabilities → metadata → capabilities preserves support."""
        original = SourceCapabilities.full_basic1().without_fields("author")
        source = StartsSource("S", source1_documents(), capabilities=original)
        rebuilt = capabilities_from_metadata(source.metadata())
        assert not rebuilt.supports_field("author")
        assert rebuilt.supports_field("title")
        assert rebuilt.query_parts == original.query_parts
        assert rebuilt.turn_off_stop_words == original.turn_off_stop_words

    def test_required_fields_always_present(self):
        source = StartsSource("S", source1_documents())
        rebuilt = capabilities_from_metadata(source.metadata())
        for name in ("title", "any", "linkage", "date/time-last-modified"):
            assert rebuilt.supports_field(name)


class TestClientTranslation:
    def test_lossless_for_full_source(self):
        source = StartsSource("S", source1_documents())
        translated, report = ClientTranslator().translate(
            query_with_everything(), source.metadata()
        )
        assert report.is_lossless()
        assert translated.filter_expression == query_with_everything().filter_expression

    def test_predicts_server_side_actual_query(self):
        """The client's pre-translation equals the source's actual-query
        report — the metadata is a faithful contract."""
        source = StartsSource(
            "S",
            source1_documents(),
            capabilities=SourceCapabilities.full_basic1()
            .without_fields("author")
            .without_modifiers("stem"),
        )
        query = query_with_everything()
        translated, report = ClientTranslator().translate(query, source.metadata())
        assert not report.is_lossless()

        results = source.search(query)
        assert results.actual_filter_expression == translated.filter_expression
        assert results.actual_ranking_expression == translated.ranking_expression

    def test_ranking_dropped_for_boolean_only_source(self):
        source = build_vendor_source("GrepMaster", "G", source1_documents())
        translated, report = ClientTranslator().translate(
            query_with_everything(), source.metadata()
        )
        assert translated.ranking_expression is None
        assert not report.ranking_survived
        assert report.filter_survived

    def test_stop_word_preservation_flag(self):
        source = build_vendor_source("ZeusFind", "Z", source1_documents())
        query = SQuery(
            ranking_expression=parse_expression('list((body-of-text "databases"))'),
            drop_stop_words=False,
        )
        translated, report = ClientTranslator().translate(query, source.metadata())
        assert not report.stop_words_preserved
        assert translated.drop_stop_words is True

    def test_client_predicts_stop_word_elimination(self):
        source = StartsSource("S", source1_documents())
        query = SQuery(
            ranking_expression=parse_expression(
                'list((body-of-text "the") (body-of-text "databases"))'
            )
        )
        translated, report = ClientTranslator().translate(query, source.metadata())
        terms = [t.lstring.text for t in translated.ranking_expression.terms()]
        assert terms == ["databases"]
        assert any("stop word" in note for note in report.dropped)


class TestKeptTranslationTarget:
    """What translation derives from metadata alone is derived once by
    whoever keeps the metadata; handing it in changes nothing."""

    @pytest.mark.parametrize("vendor", ["AcmeSearch", "OkapiWorks", "InferNet", "ZeusFind"])
    def test_a_kept_target_translates_exactly_as_a_fresh_one(self, vendor):
        metadata = build_vendor_source(vendor, "S", source1_documents()).metadata()
        kept = translation_target(metadata)
        for query in (
            query_with_everything(),
            SQuery(ranking_expression=parse_expression('"the who"'), drop_stop_words=False),
        ):
            fresh = ClientTranslator().translate(query, metadata)
            assert ClientTranslator().translate(query, metadata, target=kept) == fresh
            assert ClientTranslator().translate(query, metadata, target=kept) == fresh

    def test_a_search_derives_each_routed_source_once(self, small_federation, monkeypatch):
        import repro.metasearch.discovery as discovery_module
        from repro.metasearch import Metasearcher
        from repro.metasearch.translation import translation_target as derive

        derived = []

        def recording(metadata):
            derived.append(metadata.source_id)
            return derive(metadata)

        monkeypatch.setattr(discovery_module, "translation_target", recording)
        internet, resource_url, _ = small_federation
        searcher = Metasearcher(internet, [resource_url])
        searcher.refresh()
        assert derived == []  # nothing is built for a source no query reached
        for _ in range(3):
            searcher.search(query_with_everything(), k_sources=2)
        assert len(derived) == len(set(derived)) == 2
        known = searcher.discovery.source(derived[0])
        searcher.discovery.forget(known.source_id)
        searcher.refresh()
        # A re-harvest replaces the metadata and what was derived from it.
        assert searcher.discovery.source(known.source_id) is not known
        searcher.search(query_with_everything(), k_sources=2)
        assert derived.count(known.source_id) == 2


class TestWorthQuerying:
    def test_totally_unsupported_query_flagged(self):
        source = build_vendor_source("GrepMaster", "G", source1_documents())
        ranking_only = SQuery(
            ranking_expression=parse_expression('list((body-of-text "databases"))')
        )
        assert not ClientTranslator().worth_querying(ranking_only, source.metadata())

    def test_supported_query_flagged_true(self):
        source = StartsSource("S", source1_documents())
        assert ClientTranslator().worth_querying(
            query_with_everything(), source.metadata()
        )


class TestReport:
    def test_drops_make_the_report_lossy(self):
        source = StartsSource(
            "S",
            source1_documents(),
            capabilities=SourceCapabilities.full_basic1().without_fields("author"),
        )
        _, report = ClientTranslator().translate(
            query_with_everything(), source.metadata()
        )
        assert report.dropped and not report.is_lossless()
