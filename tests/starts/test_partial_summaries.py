"""Summaries exporting only one statistic (§4.3.2: "at least one of")."""

import pytest

from repro.corpus import source1_documents
from repro.metasearch.selection import BGloss, VGlossSum
from repro.source import StartsSource, build_content_summary
from repro.starts import SContentSummary, parse_soif
from repro.starts.errors import SoifSyntaxError


@pytest.fixture
def source():
    return StartsSource("Partial", source1_documents())


class TestPostingsOnly:
    def test_round_trip(self, source):
        summary = build_content_summary(
            source.engine, include_document_frequencies=False
        )
        parsed = SContentSummary.from_soif(parse_soif(summary.to_soif().dump()))
        assert parsed == summary
        assert parsed.has_postings and not parsed.has_document_frequencies

    def test_wire_declares_statistics(self, source):
        summary = build_content_summary(
            source.engine, include_document_frequencies=False
        )
        assert "StatisticsIncluded{8}: postings" in summary.to_soif().dump()

    def test_df_lookups_zero(self, source):
        summary = build_content_summary(
            source.engine, include_document_frequencies=False
        )
        parsed = SContentSummary.from_soif(parse_soif(summary.to_soif().dump()))
        assert parsed.document_frequency("databases") == 0
        assert parsed.word_statistics()["databases"][0] > 0

    def test_vgloss_sum_still_works(self, source):
        """Postings-mass selection survives the missing df."""
        summary = build_content_summary(
            source.engine, include_document_frequencies=False
        )
        parsed = SContentSummary.from_soif(parse_soif(summary.to_soif().dump()))
        [(_, goodness)] = VGlossSum().rank(["databases"], {"Partial": parsed})
        assert goodness > 0.0


class TestDfOnly:
    def test_round_trip(self, source):
        summary = build_content_summary(source.engine, include_postings=False)
        parsed = SContentSummary.from_soif(parse_soif(summary.to_soif().dump()))
        assert parsed == summary
        assert parsed.has_document_frequencies and not parsed.has_postings

    def test_bgloss_still_works(self, source):
        """df-based selection survives the missing postings counts."""
        summary = build_content_summary(source.engine, include_postings=False)
        parsed = SContentSummary.from_soif(parse_soif(summary.to_soif().dump()))
        [(_, goodness)] = BGloss().rank(["databases"], {"Partial": parsed})
        assert goodness > 0.0


class TestInvalid:
    def test_neither_statistic_rejected_at_build(self, source):
        with pytest.raises(ValueError):
            build_content_summary(
                source.engine,
                include_postings=False,
                include_document_frequencies=False,
            )

    def test_neither_statistic_rejected_on_wire(self):
        text = (
            "@SContentSummary{\nStatisticsIncluded{0}: \nNumDocs{1}: 0\n}\n"
        )
        with pytest.raises(SoifSyntaxError):
            SContentSummary.from_soif(parse_soif(text))

    def test_absent_attribute_defaults_to_both(self):
        text = "@SContentSummary{\nNumDocs{1}: 5\n}\n"
        parsed = SContentSummary.from_soif(parse_soif(text))
        assert parsed.has_postings and parsed.has_document_frequencies
