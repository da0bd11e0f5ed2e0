"""Segment writer/reader round trips and the store's commit protocol."""

import os
import pathlib
from array import array

import pytest

from repro.engine.documents import Document
from repro.engine.index import SummaryEntry
from repro.observability import MetricsRegistry, render_prometheus, set_registry
from repro.storage.format import StorageError
from repro.storage.manifest import MANIFEST_NAME
from repro.storage.merge import TieredMergePolicy
from repro.storage.segment import SegmentReader, SegmentWriter
from repro.storage.store import SegmentStore


def doc(i, body="hello world"):
    return Document(f"http://d/{i}", {"title": f"doc {i}", "body-of-text": body})


def column(ids, position):
    """(doc ids, tfs, positions): one occurrence at ``position`` per doc."""
    return array("q", ids), array("I", [1] * len(ids)), array("I", [position] * len(ids))


def simple_batch(ids):
    documents = [(i, doc(i), 2) for i in ids]
    postings = {
        "title": {"doc": column(ids, 0)},
        "body-of-text": {
            "hello": column(ids, 0),
            "world": column(ids, 1),
        },
    }
    summary = [
        ("body-of-text", "en", {"hello": SummaryEntry(len(ids), len(ids))}),
    ]
    return documents, postings, summary


def decoded(reader, field, term, live=None):
    handle = reader.term_handle(field, term)
    return handle.positions(live) if handle is not None else None


class TestWriterReader:
    def test_round_trip(self, tmp_path):
        documents, postings, summary = simple_batch([0, 1, 2])
        writer = SegmentWriter(tmp_path / "seg-000000", "seg-000000")
        meta = writer.write(documents, postings, summary)
        assert meta.doc_base == 0
        assert meta.doc_count == 3

        reader = SegmentReader(tmp_path / "seg-000000")
        assert reader.fields() == ["body-of-text", "title"]
        assert reader.vocabulary("body-of-text") == ["hello", "world"]
        assert decoded(reader, "body-of-text", "hello") == column([0, 1, 2], 0)
        assert decoded(reader, "body-of-text", "absent") is None
        assert reader.slot_of(1) == 1
        assert reader.slot_of(99) is None
        assert reader.document_at(0) == doc(0)
        assert reader.token_count_at(2) == 2
        assert reader.linkages() == ["http://d/0", "http://d/1", "http://d/2"]
        assert reader.summary_sections() == summary
        reader.close()

    def test_write_once(self, tmp_path):
        documents, postings, summary = simple_batch([0])
        SegmentWriter(tmp_path / "seg", "seg").write(documents, postings, summary)
        with pytest.raises(StorageError, match="already exists"):
            SegmentWriter(tmp_path / "seg", "seg")

    def test_empty_segment_refused(self, tmp_path):
        with pytest.raises(StorageError, match="empty"):
            SegmentWriter(tmp_path / "seg", "seg").write([], {}, [])

    def test_unsorted_ids_refused(self, tmp_path):
        documents = [(1, doc(1), 2), (0, doc(0), 2)]
        with pytest.raises(StorageError, match="ascend"):
            SegmentWriter(tmp_path / "seg", "seg").write(documents, {}, [])

    def test_missing_file_detected(self, tmp_path):
        documents, postings, summary = simple_batch([0])
        SegmentWriter(tmp_path / "seg", "seg").write(documents, postings, summary)
        (tmp_path / "seg" / "counts.bin").unlink()
        with pytest.raises(StorageError, match="missing"):
            SegmentReader(tmp_path / "seg")

    def test_tombstone_filter(self, tmp_path):
        documents, postings, summary = simple_batch([0, 1, 2])
        SegmentWriter(tmp_path / "seg", "seg").write(documents, postings, summary)
        reader = SegmentReader(tmp_path / "seg")
        live = lambda doc_id: doc_id != 1  # noqa: E731
        assert decoded(reader, "body-of-text", "hello", live) == column([0, 2], 0)
        reader.close()


class TestSegmentStore:
    def test_commit_and_reopen(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.commit_segment(*simple_batch([0, 1]))
        store.commit_segment(*simple_batch([2, 3]))
        assert store.segment_count == 2
        assert store.document_ceiling == 4
        assert store.generation == 2
        store.close()

        reopened = SegmentStore(tmp_path)
        assert reopened.segment_count == 2
        assert reopened.generation == 2
        assert list(decoded(reopened.readers[1], "title", "doc")[0]) == [2, 3]
        reopened.close()

    def test_overlapping_segment_refused(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.commit_segment(*simple_batch([0, 1]))
        with pytest.raises(StorageError, match="overlaps"):
            store.commit_segment(*simple_batch([1, 2]))
        store.close()

    def test_analyzer_mismatch_rejected(self, tmp_path):
        store = SegmentStore(tmp_path, analyzer={"stem": False})
        store.close()
        with pytest.raises(StorageError, match="analyzer mismatch"):
            SegmentStore(tmp_path, analyzer={"stem": True})

    def test_ranking_mismatch_rejected(self, tmp_path):
        store = SegmentStore(tmp_path, ranking="Salton-2")
        store.close()
        with pytest.raises(StorageError, match="ranking mismatch"):
            SegmentStore(tmp_path, ranking="Okapi-1")

    def test_tombstones_commit_and_filter(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.commit_segment(*simple_batch([0, 1, 2]))
        assert store.add_tombstones([1, 99]) == 1  # 99 not covered
        assert store.add_tombstones([1]) == 0  # already dead
        assert store.live_doc_count() == 2
        store.close()

        reopened = SegmentStore(tmp_path)  # tombstones survive restart
        assert reopened.tombstones == {1}
        reopened.close()

    def test_merge_folds_and_drops_tombstones(self, tmp_path):
        store = SegmentStore(tmp_path, merge_policy=TieredMergePolicy(merge_factor=2))
        store.commit_segment(*simple_batch([0, 1]))
        store.commit_segment(*simple_batch([2, 3]))
        store.add_tombstones([1])
        assert store.merge_once() is not None
        assert store.segment_count == 1
        assert store.tombstones == set()  # consumed by the merge
        assert list(decoded(store.readers[0], "title", "doc")[0]) == [0, 2, 3]
        # summary statistics were summed across the group
        sections = store.readers[0].summary_sections()
        assert sections[0][2]["hello"].postings == 4
        store.close()

    def test_merge_all_compacts_and_sweeps_directories(self, tmp_path):
        store = SegmentStore(tmp_path, merge_policy=TieredMergePolicy(merge_factor=2))
        for i in range(4):
            store.commit_segment(*simple_batch([i]))
        assert store.merge_all() >= 2
        assert store.segment_count == 1
        live_names = {meta.name for meta in store.manifest.segments}
        on_disk = {p.name for p in tmp_path.iterdir() if p.is_dir()}
        assert on_disk == live_names
        store.close()

    def test_orphan_sweep_on_open(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.commit_segment(*simple_batch([0]))
        store.close()
        orphan = tmp_path / "seg-000999"
        orphan.mkdir()
        (orphan / "junk.bin").write_bytes(b"x")
        reopened = SegmentStore(tmp_path)
        assert not orphan.exists()
        reopened.close()

    def test_all_tombstoned_group_vanishes(self, tmp_path):
        store = SegmentStore(tmp_path, merge_policy=TieredMergePolicy(merge_factor=2))
        store.commit_segment(*simple_batch([0]))
        store.commit_segment(*simple_batch([1]))
        store.add_tombstones([0, 1])
        assert store.merge_once() is None  # group merged away entirely
        assert store.segment_count == 0
        assert store.live_doc_count() == 0
        store.close()

    def test_a_store_with_no_directory_commits_nothing(self, tmp_path):
        store = SegmentStore()
        assert store.directory is None
        assert not store.readers and not store.tombstones
        assert (store.epoch, store.content_epoch, store.generation) == (0, 0, 0)
        assert (store.segment_count, store.total_bytes(), store.live_doc_count()) == (0, 0, 0)
        assert store.document_ceiling == 0
        for commit in (
            lambda: store.commit_segment(*simple_batch([0, 1])),
            lambda: store.replace_all(*simple_batch([0])),
            lambda: store.replace_all([], {}, []),
        ):
            with pytest.raises(StorageError, match="storage_dir"):
                commit()
        assert store.add_tombstones([0]) == 0  # nothing committed to delete
        assert store.merge_once() is None and not store.maybe_merge()
        assert (store.epoch, store.generation, store.segment_count) == (0, 0, 0)
        store.close()
        assert list(tmp_path.iterdir()) == []  # and no file anywhere


def file_identity(path):
    stat = os.stat(path)
    return stat.st_dev, stat.st_ino


class TestCommitDurability:
    """A manifest never names bytes that are not on disk yet."""

    def test_segment_files_are_fsynced_before_the_manifest_names_them(
        self, tmp_path, monkeypatch
    ):
        store = SegmentStore(tmp_path)
        events = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(descriptor):
            stat = os.fstat(descriptor)
            events.append(("fsync", (stat.st_dev, stat.st_ino)))
            fsync(descriptor)

        def recording_replace(source, target):
            replace(source, target)
            events.append(("replace", pathlib.Path(target)))

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        meta = store.commit_segment(*simple_batch([0, 1, 2]))
        monkeypatch.undo()

        swap = events.index(("replace", tmp_path / MANIFEST_NAME))
        synced_before = {key for kind, key in events[:swap] if kind == "fsync"}
        segment = tmp_path / meta.name
        files = sorted(segment.iterdir())
        assert len(files) == 10  # nine columns and segment.json
        for path in [*files, segment]:
            assert file_identity(path) in synced_before, path.name
        # ...and the swap itself is durable: the store directory after it.
        assert ("fsync", file_identity(tmp_path)) in events[swap + 1 :]
        store.close()


class TestStoreMetrics:
    def test_a_second_store_never_changes_what_metrics_says_of_the_first(
        self, tmp_path
    ):
        """Per-store gauges without a label would each show whichever
        store wrote last; what is left sums over stores correctly."""
        registry = set_registry(MetricsRegistry())
        try:
            first = SegmentStore(tmp_path / "first")
            for ids in ([0], [1], [2]):
                first.commit_segment(*simple_batch(ids))
            before = render_prometheus(registry)
            second = SegmentStore(tmp_path / "second")
            assert render_prometheus(registry) == before
            SegmentStore()  # nor does a store with no directory
            assert render_prometheus(registry) == before
            second.commit_segment(*simple_batch([0]))
            exposition = render_prometheus(registry)
            assert "storage_flush_ms_count 4" in exposition
            families = {
                line.split()[2] for line in exposition.splitlines()
                if line.startswith("# TYPE")
            }
            assert families == {"storage_flush_ms"}
            first.close()
            second.close()
        finally:
            set_registry(MetricsRegistry())
