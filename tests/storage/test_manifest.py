"""Manifest commits: atomicity, versioning, crash behaviour."""

import json
import os

import pytest

import repro.storage.manifest as manifest_module
from repro.storage.format import StorageError
from repro.storage.manifest import (
    MANIFEST_NAME,
    Manifest,
    SegmentMeta,
    atomic_write_text,
    commit_manifest,
    read_manifest,
)


def meta(name, base, count, size=100):
    return SegmentMeta(name=name, doc_base=base, doc_count=count, size_bytes=size)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "file.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text(encoding="utf-8") == "two"
        assert not path.with_name(path.name + ".tmp").exists()

    def test_crash_during_rename_keeps_old_content(self, tmp_path, monkeypatch):
        path = tmp_path / "file.txt"
        atomic_write_text(path, "committed")

        def exploding_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(manifest_module.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(path, "torn")
        monkeypatch.setattr(manifest_module.os, "replace", os.replace)
        assert path.read_text(encoding="utf-8") == "committed"


class TestManifestRoundTrip:
    def test_empty_round_trip(self, tmp_path):
        commit_manifest(tmp_path, Manifest())
        loaded = read_manifest(tmp_path)
        assert loaded == Manifest()

    def test_full_round_trip(self, tmp_path):
        manifest = Manifest(
            generation=7,
            next_segment_id=3,
            segments=[meta("seg-000000", 0, 10), meta("seg-000002", 10, 5)],
            analyzer={"tokenizer": "unicode-1", "stem": False},
            ranking="Salton-2",
        )
        commit_manifest(tmp_path, manifest)
        assert read_manifest(tmp_path) == manifest

    def test_missing_manifest_is_none(self, tmp_path):
        assert read_manifest(tmp_path) is None

    def test_version_mismatch_rejected(self, tmp_path):
        commit_manifest(tmp_path, Manifest())
        path = tmp_path / MANIFEST_NAME
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(StorageError, match="version"):
            read_manifest(tmp_path)

    def test_tombstones_rejected(self, tmp_path):
        """A store whose manifest still lists tombstoned documents holds
        them in its segments; opening it would bring them back."""
        commit_manifest(tmp_path, Manifest())
        path = tmp_path / MANIFEST_NAME
        payload = json.loads(path.read_text())
        payload["tombstones"] = [2, 8]
        path.write_text(json.dumps(payload))
        with pytest.raises(StorageError, match="tombstone"):
            read_manifest(tmp_path)
        payload["tombstones"] = []  # an empty list deletes nothing
        path.write_text(json.dumps(payload))
        assert read_manifest(tmp_path) == Manifest()

    def test_corrupt_manifest_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{ not json")
        with pytest.raises(StorageError, match="unreadable"):
            read_manifest(tmp_path)


class TestDocumentCeiling:
    def test_ceiling_tracks_highest_segment(self):
        manifest = Manifest(
            segments=[meta("seg-000000", 0, 10), meta("seg-000001", 10, 7)]
        )
        assert manifest.document_ceiling == 17
        assert Manifest().document_ceiling == 0

    def test_total_bytes(self):
        manifest = Manifest(
            segments=[meta("a", 0, 1, size=40), meta("b", 1, 1, size=2)]
        )
        assert manifest.total_bytes() == 42
