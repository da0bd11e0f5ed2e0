"""The manifest: the one mutable word in an immutable store.

A segment store's directory holds immutable segment subdirectories
plus a single ``MANIFEST.json`` naming the live ones.  Readers only
ever trust what the manifest lists, so the commit protocol is the
classic crash-safe two-step:

1. write the new manifest to ``MANIFEST.json.tmp`` **in the same
   directory** and flush it to stable storage;
2. ``os.replace`` it over ``MANIFEST.json`` — atomic on POSIX and
   NTFS alike — and fsync the directory, so the rename is durable.

Every file of a segment the manifest names, and the segment's
directory, are fsynced before step 1
(:class:`~repro.storage.segment.SegmentWriter`).  A crash
before step 2 leaves the old manifest (and the old segment set) fully
intact; a crash after leaves the new one.  Orphan segment
directories a crash may strand are swept when the store next opens.  Every commit bumps a **generation counter**, which doubles as
the checkpoint cursor: a replica that warmed from generation *g* needs
only the work committed after *g*.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field as dataclass_field

from repro.storage.format import FORMAT_VERSION, SUPPORTED_VERSIONS, StorageError

__all__ = ["SegmentMeta", "Manifest", "MANIFEST_NAME", "read_manifest",
           "commit_manifest", "atomic_write_bytes", "atomic_write_text",
           "sync_directory", "write_synced"]

MANIFEST_NAME = "MANIFEST.json"


def write_synced(path: str | pathlib.Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` and fsync it."""
    with open(path, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())


def sync_directory(path: str | pathlib.Path) -> None:
    """Fsync a directory, making the names created or renamed in it
    durable."""
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def atomic_write_bytes(path: str | pathlib.Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via same-directory tmp + rename.

    The temp file is fsynced before the rename so a crash can never
    publish a name pointing at partially written blocks.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    write_synced(tmp, payload)
    os.replace(tmp, path)


def atomic_write_text(path: str | pathlib.Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


@dataclass(frozen=True)
class SegmentMeta:
    """One live segment as the manifest records it."""

    name: str
    doc_base: int
    doc_count: int
    size_bytes: int

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "doc_base": self.doc_base,
            "doc_count": self.doc_count,
            "size_bytes": self.size_bytes,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SegmentMeta":
        return cls(
            name=payload["name"],
            doc_base=payload["doc_base"],
            doc_count=payload["doc_count"],
            size_bytes=payload["size_bytes"],
        )


@dataclass
class Manifest:
    """The store's committed state: segments, tombstones, configuration.

    Attributes:
        generation: bumped by every commit; the replication/checkpoint
            cursor.
        next_segment_id: monotone counter naming new segments, never
            reused even across merges (so a stale reader can never
            confuse an old segment with a new one of the same name).
        segments: live segments, ascending by ``doc_base``.
        tombstones: sorted global doc ids deleted but not yet merged
            away.
        analyzer: the signature of the analyzer the index was built
            with (checked on open).
        ranking: the configured ranking ``algorithm_id`` (or None).
    """

    generation: int = 0
    next_segment_id: int = 0
    segments: list[SegmentMeta] = dataclass_field(default_factory=list)
    tombstones: list[int] = dataclass_field(default_factory=list)
    analyzer: dict | None = None
    ranking: str | None = None

    @property
    def document_ceiling(self) -> int:
        """One past the highest doc id any live segment covers."""
        ceiling = 0
        for segment in self.segments:
            ceiling = max(ceiling, segment.doc_base + segment.doc_count)
        return ceiling

    def total_bytes(self) -> int:
        return sum(segment.size_bytes for segment in self.segments)

    def to_json(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "generation": self.generation,
            "next_segment_id": self.next_segment_id,
            "segments": [segment.to_json() for segment in self.segments],
            "tombstones": list(self.tombstones),
            "analyzer": self.analyzer,
            "ranking": self.ranking,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Manifest":
        version = payload.get("format_version")
        if version not in SUPPORTED_VERSIONS:
            raise StorageError(f"unsupported storage format version: {version}")
        return cls(
            generation=payload["generation"],
            next_segment_id=payload["next_segment_id"],
            segments=[SegmentMeta.from_json(s) for s in payload["segments"]],
            tombstones=list(payload.get("tombstones", ())),
            analyzer=payload.get("analyzer"),
            ranking=payload.get("ranking"),
        )


def read_manifest(directory: str | pathlib.Path) -> Manifest | None:
    """The committed manifest of ``directory``, or None if never committed."""
    path = pathlib.Path(directory) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise StorageError(f"unreadable manifest at {path}: {error}") from error
    return Manifest.from_json(payload)


def commit_manifest(directory: str | pathlib.Path, manifest: Manifest) -> None:
    """Atomically publish ``manifest`` as the store's committed state."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        directory / MANIFEST_NAME, json.dumps(manifest.to_json(), indent=1)
    )
    sync_directory(directory)
