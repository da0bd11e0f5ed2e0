"""The term-sharded summary index: built once, its columns and corpus statistics."""

import dataclasses
import math

import pytest

from repro.metasearch.summary_index import SummaryIndex
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

    def test_columns_replace_and_unpack(self, index):
        """``len`` is the row count, not the field count, and the columns
        still take ``dataclasses.replace`` (a NamedTuple with that
        ``__len__`` broke ``_replace``) and unpack in field order."""
        columns = index.term_columns("databases")
        one_row = dataclasses.replace(
            columns,
            ordinals=columns.ordinals[:1],
            document_frequencies=columns.document_frequencies[:1],
        )
        assert len(one_row) == 1 and len(columns) == 2
        assert one_row.postings == columns.postings
        ordinals, *rest = columns
        assert ordinals == columns.ordinals and len(rest) == 5
        assert rest[-1] is columns.positions
        with pytest.raises(dataclasses.FrozenInstanceError):
            columns.ordinals = ()

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
        """The sizes a process-wide gauge once reported (whichever index
        was built last) are the index's own, read from the catalog's."""
        summaries = population()
        summaries["Extra"] = summary(3, {"word": (2, 1)})
        index = SummaryIndex.from_summaries(summaries)
        assert (index.source_count, index.term_count) == (4, 5)

    def test_disabled_registry_is_accepted(self, fresh_registry):
        """Building an index reports to no metrics registry."""
        index = SummaryIndex.from_summaries({"Quiet": summary(3, {"word": (2, 1)})})
        assert "Quiet" in index
        assert fresh_registry.families() == []


def _vgloss_max_addend(postings, df):
    """The dense oracle's per-term addend (``tests/oracles/dense_selection.py``)."""
    if df <= 0:
        return 0.0
    return df * (1.0 + math.log(max(postings / df, 1.0)))


def mixed_population():
    """Ties, zero and clamped-negative dfs, and both case rules."""
    return {
        "A": summary(50, {"alpha": (60, 20), "Beta": (9, 3), "gamma": (5, 0)}),
        "B": summary(50, {"alpha": (16, 8), "beta": (4, 2)}, case_sensitive=True),
        "C": summary(40, {"alpha": (16, 8), "Beta": (30, 6), "gamma": (-1, -1)},
                     case_sensitive=True),
        "D": summary(40, {"alpha": (2, 1), "beta": (70, 7)}),
        "E": summary(10, {"alpha": (1, 1), "gamma": (12, 4)}),
    }


class TestSortedColumns:
    """Every column a selector sees is sorted by its stored addend."""

    def _columns(self, index, terms):
        return {term: index.term_columns(term) for term in terms}

    def _assert_invariants(self, index, summaries, columns):
        for term, shard in columns.items():
            weights = list(shard.weights)
            assert weights == sorted(weights, reverse=True), term
            assert {len(column) for column in list(shard)[:4]} == {len(shard.positions)}
            for slot, ordinal in enumerate(shard.ordinals):
                assert shard.positions[ordinal] == slot
                assert shard.weights[slot] == _vgloss_max_addend(
                    shard.postings[slot], shard.document_frequencies[slot]
                )
                # The row holds that summary's own df for the term.
                source = summaries[index.source_id(ordinal)]
                df = shard.document_frequencies[slot]
                assert df == source.document_frequency(term)
            assert shard.collection_frequency == sum(
                1 for s in summaries.values() if s.document_frequency(term) > 0
            ), term

    def test_shards_are_sorted_and_hold_the_oracle_addend(self):
        summaries = mixed_population()
        index = SummaryIndex.from_summaries(summaries)
        columns = self._columns(index, ["alpha", "beta", "gamma"])
        assert [index.source_id(o) for o in columns["alpha"].ordinals] == [
            "A", "B", "C", "D", "E"
        ]
        # Ties keep their build order; a zero or clamped df adds 0.0.
        assert list(columns["gamma"].weights)[-2:] == [0.0, 0.0]
        self._assert_invariants(index, summaries, columns)

    def test_mixed_case_merged_columns_are_sorted(self):
        summaries = mixed_population()
        index = SummaryIndex.from_summaries(summaries)
        columns = self._columns(index, ["Beta", "Alpha", "GAMMA"])
        # "Beta": the case-sensitive C by its raw key, A and D (not the
        # case-sensitive B) by the lowered one, merged in weight order.
        assert [index.source_id(o) for o in columns["Beta"].ordinals] == [
            "D", "C", "A"
        ]
        assert [index.source_id(o) for o in columns["Alpha"].ordinals] == [
            "A", "D", "E"
        ]
        self._assert_invariants(index, summaries, columns)

    def test_collection_frequency_is_unchanged(self, index):
        assert [
            index.term_columns(term).collection_frequency
            for term in ("databases", "query", "patient", "diagnosis")
        ] == [2, 1, 2, 1]
