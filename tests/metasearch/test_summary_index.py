"""The term-sharded summary index: built once, its columns and corpus statistics."""

import pytest

from repro.metasearch.summary_index import SummaryIndex
from repro.observability.metrics import MetricsRegistry, get_registry, set_registry
from repro.starts.metadata import SContentSummary, SummaryEntryLine, SummarySection


def summary(num_docs, words, case_sensitive=False):
    """words: {word: (postings, df)}"""
    entries = tuple(
        SummaryEntryLine(word, postings, df) for word, (postings, df) in words.items()
    )
    return SContentSummary(
        num_docs=num_docs,
        case_sensitive=case_sensitive,
        sections=(SummarySection("body-of-text", "en", entries),),
    )


def population():
    return {
        "DB": summary(100, {"databases": (400, 80), "query": (150, 60)}),
        "Mixed": summary(80, {"databases": (40, 20), "patient": (100, 50)}),
        "Med": summary(120, {"patient": (500, 90), "diagnosis": (200, 70)}),
    }


@pytest.fixture
def index():
    return SummaryIndex.from_summaries(population())


class TestBuild:
    def test_sizes(self, index):
        assert len(index) == 3
        assert index.source_count == 3
        assert index.term_count == 4  # databases, query, patient, diagnosis
        assert "DB" in index and "Nope" not in index

    def test_source_columns(self, index):
        ordinal = dict(index.sorted_sources())["Med"]
        assert index.source_id(ordinal) == "Med"
        assert index.num_docs(ordinal) == 120
        assert index.clamped_word_mass(ordinal) == 700.0

    def test_term_columns(self, index):
        columns = index.term_columns("databases")
        assert len(columns) == 2
        by_source = {
            index.source_id(ordinal): (
                columns.document_frequencies[slot],
                columns.postings[slot],
            )
            for slot, ordinal in enumerate(columns.ordinals)
        }
        assert by_source == {"DB": (80, 400), "Mixed": (20, 40)}
        assert columns.positions == {
            ordinal: slot for slot, ordinal in enumerate(columns.ordinals)
        }

    def test_absent_term_is_empty(self, index):
        columns = index.term_columns("nonexistent")
        assert len(columns) == 0
        assert columns.collection_frequency == 0

    def test_collection_frequency(self, index):
        assert index.term_columns("databases").collection_frequency == 2
        assert index.term_columns("diagnosis").collection_frequency == 1

    def test_mean_clamped_word_mass_matches_dense(self, index):
        dense = [
            max(1.0, float(s.total_word_mass())) for s in population().values()
        ]
        assert index.mean_clamped_word_mass() == sum(dense) / len(dense)


class TestCaseSensitivity:
    def test_mixed_case_term_honours_per_summary_rule(self):
        index = SummaryIndex.from_summaries(
            {
                "Insensitive": summary(10, {"unix": (8, 4)}),
                "Sensitive": summary(10, {"Unix": (6, 3)}, case_sensitive=True),
            }
        )
        # Lowercase probe: matches the insensitive source only — the
        # sensitive one holds the capitalized spelling.
        lower = index.term_columns("unix")
        assert {index.source_id(o) for o in lower.ordinals} == {"Insensitive"}
        # Capitalized probe: sensitive source via the raw key, the
        # insensitive one via its lowered key.
        upper = index.term_columns("Unix")
        assert {index.source_id(o) for o in upper.ordinals} == {
            "Insensitive",
            "Sensitive",
        }
        assert upper.collection_frequency == 2


class TestGauges:
    def test_bump_sets_gauges(self):
        """Building an index is the one time its gauges move."""
        previous = get_registry()
        set_registry(MetricsRegistry())
        try:
            summaries = population()
            summaries["Extra"] = summary(3, {"word": (2, 1)})
            SummaryIndex.from_summaries(summaries)

            def gauge_value(name):
                [(_, child)] = get_registry().family(name).children()
                return child.value

            assert gauge_value("summary_index_sources") == 4.0
            assert gauge_value("summary_index_terms") == 5.0
        finally:
            set_registry(previous)

    def test_disabled_registry_is_accepted(self):
        previous = get_registry()
        set_registry(MetricsRegistry.disabled())
        try:
            index = SummaryIndex.from_summaries({"Quiet": summary(3, {"word": (2, 1)})})
            assert "Quiet" in index
        finally:
            set_registry(previous)
