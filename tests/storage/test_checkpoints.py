"""Checkpoint/restore: summary indexes, leaf brokers, cache tiers.

Restoration must be *bit-identical*: the same packed columns, the same
corpus statistics, the same selector scores (held to the dense oracle),
the same remaining TTLs.  Leaf checkpoints additionally carry the
delta-log cursor, so a warm restart replays only the log tail.
"""

import pathlib

import pytest

from repro.broker import LeafBroker
from repro.cache import FRESH, MISS, STALE, QueryResultCache
from repro.metasearch.selection import Cori
from repro.metasearch.summary_index import SummaryIndex
from repro.observability.metrics import MetricsRegistry, get_registry, set_registry
from repro.storage import StorageError
from repro.storage.checkpoint import (
    load_cache,
    load_leaf_checkpoint,
    load_summary_index,
    save_cache,
    save_leaf_checkpoint,
    save_summary_index,
)

from tests.broker.util import demo_population, make_summary
from tests.oracles.dense_selection import oracle_rank

TERMS = ["databases", "retrieval", "medicine", "systems"]
DATA = pathlib.Path(__file__).parent.parent / "data"


def churned_index():
    """An index whose free list has seen some action."""
    population = demo_population(n_sources=16, seed=9)
    index = SummaryIndex.from_summaries(population)
    for source_id in list(population)[::4]:
        index.remove(source_id)
    index.add("Late-0", make_summary(40, {"databases": (9, 4), "systems": (3, 2)}))
    index.add("Late-1", make_summary(7, {"medicine": (2, 1)}))
    index.remove("Late-0")
    return index


def assert_bit_identical(original, restored):
    assert restored.generation == original.generation
    assert restored._clamped_mass_total == original._clamped_mass_total
    assert restored._source_ids == original._source_ids
    assert restored._num_docs == original._num_docs
    assert restored._word_mass == original._word_mass
    assert restored._free == original._free
    assert restored.mean_clamped_word_mass() == original.mean_clamped_word_mass()
    assert restored.summaries() == original.summaries()
    assert set(restored._shards) == set(original._shards)
    for term in original._shards:
        ours, theirs = original.term_columns(term), restored.term_columns(term)
        assert ours.ordinals == theirs.ordinals
        assert ours.document_frequencies == theirs.document_frequencies
        assert ours.postings == theirs.postings


class TestSummaryIndexCheckpoint:
    def test_round_trip_is_bit_identical(self, tmp_path):
        index = churned_index()
        generation = save_summary_index(index, tmp_path / "summary.ckpt")
        assert generation == index.generation
        restored = load_summary_index(tmp_path / "summary.ckpt")
        assert_bit_identical(index, restored)

    def test_restored_selector_scores_match_dense_oracle(self, tmp_path):
        index = churned_index()
        save_summary_index(index, tmp_path / "summary.ckpt")
        restored = load_summary_index(tmp_path / "summary.ckpt")
        sparse = Cori().rank(TERMS, restored)
        assert sparse == Cori().rank(TERMS, index)
        assert sparse == oracle_rank(Cori(), TERMS, restored.summaries())

    def test_restored_index_keeps_evolving(self, tmp_path):
        index = churned_index()
        save_summary_index(index, tmp_path / "summary.ckpt")
        restored = load_summary_index(tmp_path / "summary.ckpt")
        # mutations after restore reuse freed ordinals the same way
        for target in (index, restored):
            target.add("Post", make_summary(5, {"retrieval": (4, 2)}))
            target.remove("Late-1")
        assert_bit_identical(index, restored)

    def test_empty_index_round_trips(self, tmp_path):
        save_summary_index(SummaryIndex(), tmp_path / "empty.ckpt")
        restored = load_summary_index(tmp_path / "empty.ckpt")
        assert len(restored) == 0
        assert restored.generation == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE rest of file")
        with pytest.raises(StorageError, match="not a summary-index checkpoint"):
            load_summary_index(path)

    def test_version_mismatch_rejected(self, tmp_path):
        from repro.storage.checkpoint import _SUMMARY_MAGIC
        from repro.storage.format import encode_varint

        blob = bytearray(_SUMMARY_MAGIC)
        encode_varint(blob, 999)
        path = tmp_path / "future.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(StorageError, match="version"):
            load_summary_index(path)


class TestLeafCheckpoint:
    def deltas(self):
        population = demo_population(n_sources=12, seed=3)
        return [(source_id, population[source_id]) for source_id in sorted(population)]

    def test_warm_restart_replays_only_the_tail(self, tmp_path):
        deltas = self.deltas()
        live = LeafBroker("leaf-07")
        for source_id, summary in deltas[:8]:
            live.apply_delta(source_id, summary)
        position = live.save_checkpoint(tmp_path / "leaf.ckpt")
        assert position == 8
        for source_id, summary in deltas[8:]:
            live.apply_delta(source_id, summary)

        warmed = LeafBroker.from_checkpoint(tmp_path / "leaf.ckpt")
        assert warmed.leaf_id == "leaf-07"
        assert warmed.restored_log_position == 8
        for source_id, summary in deltas[warmed.restored_log_position :]:
            warmed.apply_delta(source_id, summary)
        # The cursor stays a position in the *upstream* stream, so the
        # next checkpoint of the warmed leaf resumes from the right delta.
        assert warmed.log_position == live.log_position == len(deltas)
        assert warmed.index.generation == live.index.generation
        assert warmed.index.summaries() == live.index.summaries()
        assert Cori().rank(TERMS, warmed.index) == Cori().rank(TERMS, live.index)

    def test_checkpoint_written_by_the_previous_commit_still_loads(self):
        """``tests/data/leaf_checkpoint_pr17.ckpt``: five deltas (three
        adds, a forget, an add) saved by PR 17's ``save_leaf_checkpoint``,
        when a leaf still carried a standby and a retained log."""
        warmed = load_leaf_checkpoint(DATA / "leaf_checkpoint_pr17.ckpt")
        assert warmed.leaf_id == "leaf-07"
        assert warmed.restored_log_position == warmed.log_position == 5
        assert warmed.index.generation == 5
        assert warmed.index.source_ids() == ["S0", "S2", "S3"]
        assert [
            (source_id, score.hex())
            for source_id, score in Cori().rank(["databases", "query"], warmed.index)
        ] == [
            ("S0", (0.4033943041971346).hex()),
            ("S2", (0.4020580690282375).hex()),
            ("S3", (0.40156321568052156).hex()),
        ]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"XXXX")
        with pytest.raises(StorageError, match="not a leaf checkpoint"):
            load_leaf_checkpoint(path)

    def test_leaf_and_summary_checkpoints_are_distinct(self, tmp_path):
        live = LeafBroker("leaf-00")
        live.apply_delta("S0", make_summary(3, {"query": (2, 1)}))
        save_leaf_checkpoint(live, tmp_path / "leaf.ckpt")
        with pytest.raises(StorageError, match="not a summary-index checkpoint"):
            load_summary_index(tmp_path / "leaf.ckpt")


class FakeClock:
    def __init__(self, now_ms=0.0):
        self.now_ms = now_ms

    def __call__(self):
        return self.now_ms


class TestCacheCheckpoint:
    def make(self, now_ms=0.0, **kwargs):
        clock = FakeClock(now_ms)
        defaults = dict(ttl_ms=100.0, stale_grace_ms=100.0, clock=clock)
        defaults.update(kwargs)
        return QueryResultCache(**defaults), clock

    def test_remaining_ttl_survives_clock_restart(self, tmp_path):
        cache, clock = self.make()
        cache.store("q1", {"docs": 3}, source_ids=("s1",))
        clock.now_ms = 60.0  # 40ms of freshness left
        assert cache.save_checkpoint(tmp_path / "cache.ckpt") == 1

        # "new process": the monotonic clock restarts at an unrelated epoch
        warmed, warmed_clock = self.make(now_ms=5000.0)
        assert warmed.load_checkpoint(tmp_path / "cache.ckpt") == 1
        assert warmed.lookup("q1") == ({"docs": 3}, FRESH)
        warmed_clock.now_ms = 5041.0  # past the 40ms that remained
        assert warmed.lookup("q1") == ({"docs": 3}, STALE)
        warmed_clock.now_ms = 5141.0  # past the stale grace too
        assert warmed.lookup("q1") == (None, MISS)

    def test_tags_survive_for_invalidation(self, tmp_path):
        cache, _ = self.make()
        cache.store("a", 1, source_ids=("s1",))
        cache.store("b", 2, source_ids=("s2",))
        cache.save_checkpoint(tmp_path / "cache.ckpt")
        warmed, _ = self.make()
        warmed.load_checkpoint(tmp_path / "cache.ckpt")
        assert warmed.invalidate_source("s1") == 1
        assert warmed.lookup("a") == (None, MISS)
        assert warmed.lookup("b") == (2, FRESH)

    def test_lru_order_survives(self, tmp_path):
        cache, _ = self.make(capacity=3)
        for key in ("a", "b", "c"):
            cache.store(key, key.upper())
        cache.lookup("a")  # "b" is now least recently used
        save_cache(cache, tmp_path / "lru.ckpt")

        warmed, _ = self.make(capacity=3)
        load_cache(warmed, tmp_path / "lru.ckpt")
        warmed.store("d", "D")  # one over capacity: evicts the LRU entry
        assert "b" not in warmed
        assert all(key in warmed for key in ("a", "c", "d"))

    def test_restore_into_a_smaller_cache_keeps_the_most_recent(self, tmp_path):
        """A restore goes through the same eviction as a store."""
        cache, clock = self.make(capacity=5)
        for age, key in enumerate("abcde"):
            clock.now_ms = 10.0 * age
            cache.store(key, key.upper())
        cache.lookup("a")  # LRU order is now b c d e a
        clock.now_ms = 60.0
        assert cache.save_checkpoint(tmp_path / "big.ckpt") == 5

        warmed, warmed_clock = self.make(now_ms=9000.0, capacity=3)
        assert warmed.load_checkpoint(tmp_path / "big.ckpt") == 3
        assert len(warmed) == 3
        assert [key for key in "abcde" if key in warmed] == ["a", "d", "e"]
        # Remaining TTLs intact: "a" was 60 ms old at save, "d" 30, "e" 20.
        warmed_clock.now_ms = 9045.0
        assert warmed.lookup("a") == ("A", STALE)
        assert warmed.lookup("d") == ("D", FRESH)
        # LRU order intact: "a" (stale reads do not promote) is the most
        # recent of the checkpoint, "d" was just promoted, so "e" falls.
        warmed.store("f", "F")
        assert "e" not in warmed and all(key in warmed for key in "adf")

    def test_results_decoded_but_never_read_restore_equal(self, tmp_path, source1):
        """What a metasearcher caches are decoded responses whose
        documents have built no answer fields yet."""
        from repro.starts import SQResults, SQuery, parse_expression

        query = SQuery(
            ranking_expression=parse_expression('(body-of-text "databases")'),
            answer_fields=("title", "author"),
        )
        answered = source1.search(query)
        assert answered.documents and answered.documents[0].fields
        cache, _ = self.make()
        cache.store("q", {"Source-1": SQResults.from_soif_stream(answered.to_soif_stream())})
        assert cache.save_checkpoint(tmp_path / "cache.ckpt") == 1
        warmed, _ = self.make()
        assert warmed.load_checkpoint(tmp_path / "cache.ckpt") == 1
        assert warmed.lookup("q") == ({"Source-1": answered}, FRESH)

    def test_restore_requires_empty_cache(self, tmp_path):
        cache, _ = self.make()
        cache.store("k", 1)
        cache.save_checkpoint(tmp_path / "cache.ckpt")
        with pytest.raises(StorageError, match="empty"):
            cache.load_checkpoint(tmp_path / "cache.ckpt")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"ELF\x7f")
        cache, _ = self.make()
        with pytest.raises(StorageError, match="not a cache checkpoint"):
            cache.load_checkpoint(path)


class TestCheckpointMetrics:
    def test_saves_and_loads_are_observed_by_kind(self, tmp_path):
        previous = get_registry()
        set_registry(MetricsRegistry())
        try:
            save_summary_index(churned_index(), tmp_path / "s.ckpt")
            load_summary_index(tmp_path / "s.ckpt")
            leaf = LeafBroker("leaf-00")
            leaf.apply_delta("S0", make_summary(1, {"query": (1, 1)}))
            leaf.save_checkpoint(tmp_path / "l.ckpt")
            LeafBroker.from_checkpoint(tmp_path / "l.ckpt")
            cache = QueryResultCache(ttl_ms=10.0)
            cache.store("k", 1)
            cache.save_checkpoint(tmp_path / "c.ckpt")

            def kinds(name):
                family = get_registry().family(name)
                return {labels[0] for labels, _ in family.children()}

            assert kinds("checkpoint_save_ms") == {"summary_index", "leaf", "cache"}
            assert kinds("checkpoint_load_ms") == {"summary_index", "leaf"}
        finally:
            set_registry(previous)
