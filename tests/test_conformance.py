"""The conformance checker: every vendor passes; broken sources fail."""

import pytest

from repro.conformance import ConformanceReport, check_source
from repro.corpus import source1_documents
from repro.source import StartsSource
from repro.starts.results import SQResults
from repro.vendors import build_vendor_source, vendor_names


class TestBuiltinsConform:
    @pytest.mark.parametrize("vendor", vendor_names())
    def test_every_vendor_passes(self, vendor):
        source = build_vendor_source(vendor, f"{vendor}-c", source1_documents())
        report = check_source(source)
        assert report.passed, [finding.row() for finding in report.failures()]

    def test_plain_source_passes(self, source1):
        assert check_source(source1).passed

    def test_empty_source_passes(self):
        assert check_source(StartsSource("Empty", [])).passed


class TestBrokenSourcesFail:
    def test_stateful_source_detected(self, source1):
        """A source that numbers its responses is not sessionless."""
        original_search = source1.search
        counter = {"n": 0}

        def stateful_search(query):
            counter["n"] += 1
            results = original_search(query)
            return SQResults(
                sources=results.sources + (f"call-{counter['n']}",),
                actual_filter_expression=results.actual_filter_expression,
                actual_ranking_expression=results.actual_ranking_expression,
                documents=results.documents,
            )

        source1.search = stateful_search
        try:
            report = check_source(source1)
        finally:
            source1.search = original_search
        assert not report.passed
        assert any("sessionless" in f.check for f in report.failures())

    def test_score_range_liar_detected(self, source1):
        """A source whose scores escape its declared range fails."""
        original_metadata = source1.metadata

        def lying_metadata():
            from dataclasses import replace

            return replace(original_metadata(), score_range=(0.0, 0.0001))

        source1.metadata = lying_metadata
        try:
            report = check_source(source1)
        finally:
            source1.metadata = original_metadata
        assert not report.passed
        assert any("ScoreRange" in f.check for f in report.failures())

    def test_summary_size_liar_detected(self, source1):
        original_summary = source1.content_summary

        def lying_summary(max_words_per_section=None):
            from dataclasses import replace

            return replace(original_summary(max_words_per_section), num_docs=9999)

        source1.content_summary = lying_summary
        try:
            report = check_source(source1)
        finally:
            source1.content_summary = original_summary
        assert not report.passed


class TestReportRendering:
    def test_failures_listed(self):
        report = ConformanceReport("X")
        report.add("a", True)
        report.add("b", False, "broken")
        assert len(report.failures()) == 1
        assert "FAIL" in report.failures()[0].row()
        assert not report.passed
