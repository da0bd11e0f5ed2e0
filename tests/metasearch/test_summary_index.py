"""The term-sharded summary index: deltas, columns, corpus statistics."""

import pytest

from repro.metasearch.selection import BGloss, Cori, VGlossSum
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


@pytest.fixture
def index():
    return SummaryIndex.from_summaries(
        {
            "DB": summary(100, {"databases": (400, 80), "query": (150, 60)}),
            "Mixed": summary(80, {"databases": (40, 20), "patient": (100, 50)}),
            "Med": summary(120, {"patient": (500, 90), "diagnosis": (200, 70)}),
        }
    )


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
            max(1.0, float(s.total_word_mass())) for s in index.summaries().values()
        ]
        assert index.mean_clamped_word_mass() == sum(dense) / len(dense)

    def test_summaries_roundtrip(self, index):
        assert set(index.summaries()) == {"DB", "Mixed", "Med"}
        assert index.summary("DB").num_docs == 100


class TestDeltas:
    def test_remove_drops_shards_and_cf(self, index):
        generation = index.generation
        assert index.remove("Med") is True
        assert index.generation > generation
        assert "Med" not in index
        # diagnosis lived only in Med: its shard is gone entirely.
        assert index.term_columns("diagnosis").collection_frequency == 0
        assert index.term_count == 3
        # patient survives in Mixed; CORI's cf decremented, not zeroed.
        assert index.term_columns("patient").collection_frequency == 1

    def test_remove_unknown_is_noop(self, index):
        generation = index.generation
        assert index.remove("Nope") is False
        assert index.generation == generation

    def test_reharvest_replaces(self, index):
        index.add("DB", summary(10, {"vldb": (5, 3)}))
        assert len(index) == 3
        assert index.term_columns("query").collection_frequency == 0
        assert index.term_columns("vldb").collection_frequency == 1
        assert index.num_docs(dict(index.sorted_sources())["DB"]) == 10

    def test_ordinal_recycling(self, index):
        victim = dict(index.sorted_sources())["DB"]
        index.remove("DB")
        index.add("New", summary(5, {"fresh": (2, 1)}))
        assert dict(index.sorted_sources())["New"] == victim

    def test_delta_stream_matches_rebuild(self, index):
        index.remove("Mixed")
        index.add("DB", summary(60, {"databases": (90, 30)}))
        index.add("Extra", summary(40, {"query": (10, 5)}))
        rebuilt = SummaryIndex.from_summaries(index.summaries())
        for selector in (BGloss(), VGlossSum(), Cori()):
            assert selector.rank(["databases", "query"], index) == selector.rank(
                ["databases", "query"], rebuilt
            )
        assert index.mean_clamped_word_mass() == rebuilt.mean_clamped_word_mass()

    def test_update_none_removes(self, index):
        index.update("Med", None)
        assert "Med" not in index
        index.update("Med", summary(7, {"patient": (3, 2)}))
        assert index.term_columns("patient").collection_frequency == 2


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
    def test_bump_sets_gauges(self, index):
        previous = get_registry()
        set_registry(MetricsRegistry())
        try:
            index.add("Extra", summary(3, {"word": (2, 1)}))

            def gauge_value(name):
                [(_, child)] = get_registry().family(name).children()
                return child.value

            assert gauge_value("summary_index_sources") == 4.0
            assert gauge_value("summary_index_terms") == 5.0
        finally:
            set_registry(previous)

    def test_disabled_registry_is_accepted(self, index):
        previous = get_registry()
        set_registry(MetricsRegistry.disabled())
        try:
            index.add("Quiet", summary(3, {"word": (2, 1)}))
            assert "Quiet" in index
        finally:
            set_registry(previous)
