"""Leaf brokers: the delta stream and its cursor, probes, the stats view."""

import pytest

from repro.broker import CorpusStats, GlobalStatsView, LeafBroker

from tests.broker.util import make_summary


@pytest.fixture
def leaf():
    broker = LeafBroker("leaf-00")
    broker.apply_delta("S0", make_summary(10, {"databases": (30, 8)}))
    broker.apply_delta("S1", make_summary(20, {"retrieval": (12, 6)}))
    return broker


class TestDeltaStream:
    def test_deltas_build_the_primary(self, leaf):
        assert len(leaf.index) == 2
        assert leaf.index.term_columns("databases").collection_frequency == 1

    def test_none_delta_removes(self, leaf):
        leaf.apply_delta("S0", None)
        assert "S0" not in leaf.index
        assert leaf.index.term_columns("databases").collection_frequency == 0

    def test_reharvest_replaces(self, leaf):
        leaf.apply_delta("S0", make_summary(5, {"networks": (4, 2)}))
        assert leaf.index.term_columns("databases").collection_frequency == 0
        assert leaf.index.term_columns("networks").collection_frequency == 1


class TestProbe:
    def test_probe_reports_shard_statistics(self, leaf):
        probe = leaf.probe(["databases", "absent"], 5)
        assert probe.leaf_id == "leaf-00"
        assert probe.n_sources == 2
        assert probe.term_lengths == (1, 0)
        assert probe.term_collection_frequencies == (1, 0)
        assert probe.touches()

    def test_probe_fill_is_first_k_in_id_order(self, leaf):
        assert leaf.probe([], 1).fill_ids == ("S0",)
        assert leaf.probe([], 9).fill_ids == ("S0", "S1")

    def test_untouched_shard_does_not_touch(self, leaf):
        assert not leaf.probe(["absent"], 1).touches()


class TestGlobalStatsView:
    def test_corpus_statistics_come_from_the_root(self, leaf):
        stats = CorpusStats(
            n_sources=100,
            clamped_mass_total=5000,
            collection_frequencies={"databases": 37},
        )
        view = GlobalStatsView(leaf.index, stats)
        assert len(view) == 100
        assert view.mean_clamped_word_mass() == 50.0
        assert view.term_columns("databases").collection_frequency == 37
        assert view.term_columns("absent").collection_frequency == 0

    def test_per_source_reads_come_from_the_shard(self, leaf):
        view = GlobalStatsView(leaf.index, _stats(leaf))
        assert "S0" in view and "S9" not in view
        assert view.source_ids() == leaf.index.source_ids()
        assert view.summaries() == leaf.index.summaries()
        columns = view.term_columns("databases")
        assert list(columns.postings) == [30]

    def test_empty_corpus_mean_is_zero(self, leaf):
        stats = CorpusStats(0, 0, {})
        assert GlobalStatsView(leaf.index, stats).mean_clamped_word_mass() == 0.0


class TestAggregateSummary:
    def test_cached_per_generation(self, leaf):
        first = leaf.aggregate_summary()
        assert leaf.aggregate_summary() is first
        leaf.apply_delta("S2", make_summary(3, {"systems": (2, 1)}))
        second = leaf.aggregate_summary()
        assert second is not first
        assert second.num_docs == 33

    def test_shard_stats_row(self, leaf):
        stats = leaf.shard_stats()
        assert stats["leaf"] == "leaf-00"
        assert stats == {
            "leaf": "leaf-00", "sources": 2, "terms": 2, "generation": 2
        }


def _stats(leaf):
    return CorpusStats(
        n_sources=len(leaf.index),
        clamped_mass_total=leaf.index.clamped_mass_total,
        collection_frequencies={},
    )
