"""The segment store: committed segments + the commit protocol.

A :class:`SegmentStore` owns one directory: the committed manifest
and one :class:`~repro.storage.segment.SegmentReader` per live
segment.  A store with no directory is what a memory engine sits over:
it has no manifest file and no readers, and refuses every commit.  All
mutation funnels through three commit operations —
:meth:`commit_segment` (a flush), :meth:`merge_once` (fold a planned
group into one segment) and :meth:`replace_all` (an engine's exact
removal) — each of which writes the new state *beside* the old and
publishes it with a single atomic manifest swap, so readers and
crashes only ever observe a fully committed store.

:attr:`epoch` bumps on every commit: the physical layout moved, so the
index and document-store views stacked on top re-derive anything
holding reader references or decoded postings.  A flush or merge
changes no query answer; after a replacement the engine reopens its
views over the store.
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil
import threading
import time

from repro.engine.documents import CommittedSegments, Document
from repro.engine.index import SummaryEntry, fold_summary_sections
from repro.observability.metrics import get_registry
from repro.storage.format import StorageError
from repro.storage.manifest import (
    MANIFEST_NAME,
    Manifest,
    SegmentMeta,
    commit_manifest,
    read_manifest,
)
from repro.storage.merge import TieredMergePolicy
from repro.storage.segment import SegmentReader, SegmentWriter

__all__ = ["SegmentStore"]


class SegmentStore(CommittedSegments):
    """One directory of immutable segments under an atomic manifest.

    Args:
        directory: the store's root; created (with an empty manifest)
            when it does not exist yet.  None makes a store with no
            directory: nothing committed, and every commit refused.
        analyzer: analyzer signature to record/verify — a store built
            by a stemming analyzer must never be served by a
            non-stemming one.
        ranking: the engine's configured ranking ``algorithm_id``;
            verified against the manifest on open, mismatch raises.
        merge_policy: the tiered policy steering :meth:`merge_all`.
    """

    #: A store with no directory keeps this empty manifest; its readers
    #: and epoch stay the base's empty ones.
    manifest = Manifest()

    def __init__(
        self,
        directory: str | pathlib.Path | None = None,
        analyzer: dict | None = None,
        ranking: str | None = None,
        merge_policy: TieredMergePolicy | None = None,
    ) -> None:
        self.directory = None if directory is None else pathlib.Path(directory)
        self.merge_policy = merge_policy or TieredMergePolicy()
        self._commit_lock = threading.Lock()
        if self.directory is None:
            return

        manifest = read_manifest(self.directory)
        if manifest is None:
            manifest = Manifest(analyzer=analyzer, ranking=ranking)
            commit_manifest(self.directory, manifest)
        else:
            if analyzer is not None and manifest.analyzer is not None and (
                manifest.analyzer != analyzer
            ):
                raise StorageError(
                    f"analyzer mismatch: store built with {manifest.analyzer}, "
                    f"engine configured as {analyzer}"
                )
            if ranking is not None and manifest.ranking is not None and (
                manifest.ranking != ranking
            ):
                raise StorageError(
                    f"ranking mismatch: store built for {manifest.ranking!r}, "
                    f"engine configured as {ranking!r}"
                )
        self.manifest = manifest
        self.readers: list[SegmentReader] = [
            SegmentReader(self.directory / meta.name) for meta in manifest.segments
        ]
        self.sweep_orphans()

    # -- introspection -----------------------------------------------------

    @property
    def generation(self) -> int:
        """The committed manifest generation (the checkpoint cursor)."""
        return self.manifest.generation

    @property
    def segment_count(self) -> int:
        return len(self.readers)

    def total_bytes(self) -> int:
        return self.manifest.total_bytes()

    @property
    def document_ceiling(self) -> int:
        return self.manifest.document_ceiling

    @property
    def document_count(self) -> int:
        return sum(meta.doc_count for meta in self.manifest.segments)

    def manifest_path(self) -> pathlib.Path:
        return self.directory / MANIFEST_NAME

    def close(self) -> None:
        for reader in self.readers:
            reader.close()
        self.readers = []

    # -- commits -----------------------------------------------------------

    def commit_segment(
        self,
        documents: list[tuple[int, Document, int]],
        postings: dict[str, dict[str, tuple]],
        summary: list[tuple[str, str, dict[str, SummaryEntry]]],
    ) -> SegmentMeta:
        """Flush one batch (the engine's mutable tail) as a new segment."""
        started = time.perf_counter()
        with self._commit_lock:
            if documents and documents[0][0] < self.manifest.document_ceiling:
                raise StorageError("flushed segment overlaps committed doc ids")
            meta = self._replace(set(), documents, postings, summary)
        get_registry().histogram(
            "storage_flush_ms",
            "Wall-clock time of one tail flush into an immutable segment.",
        ).observe((time.perf_counter() - started) * 1000.0)
        return meta

    def _root(self) -> pathlib.Path:
        """The directory a commit writes to; a store with none refuses."""
        if self.directory is None:
            raise StorageError("a store with no storage_dir commits nothing")
        return self.directory

    # -- merging -----------------------------------------------------------

    def merge_once(self) -> SegmentMeta | None:
        """Execute one planned merge; returns the new segment, or None when
        the policy plans none.

        The group's postings are decoded, re-encoded into one segment of
        the next tier, and published with a single manifest swap.  Old
        directories are deleted only after the swap — a crash at any point
        leaves either the old committed state or the new one.
        """
        started = time.perf_counter()
        with self._commit_lock:
            group = self.merge_policy.plan(self.manifest.segments)
            if not group:
                return None
            meta = self._merge_group(group)
        registry = get_registry()
        registry.histogram(
            "storage_merge_ms",
            "Wall-clock time of one background segment merge.",
        ).observe((time.perf_counter() - started) * 1000.0)
        registry.counter(
            "storage_merges_total",
            "Segment merges executed (tiered policy).",
        ).inc()
        return meta

    def _merge_group(self, group: list[SegmentMeta]) -> SegmentMeta | None:
        """Fold ``group`` into one segment (commit lock held)."""
        names = {meta.name for meta in group}
        readers = [reader for reader in self.readers if reader.name in names]

        documents: list[tuple[int, Document, int]] = []
        postings: dict[str, dict[str, tuple]] = {}
        for reader in readers:
            documents.extend(
                (doc_id, reader.document_at(slot), reader.token_count_at(slot))
                for slot, doc_id in enumerate(reader.doc_ids())
            )
            # Readers ascend by doc base, so per-term concatenation keeps
            # every column doc-id ascending.
            for field_name in reader.fields():
                field_postings = postings.setdefault(field_name, {})
                for term in reader.vocabulary(field_name):
                    columns = reader.term_handle(field_name, term).positions()
                    if term in field_postings:
                        for column, more in zip(field_postings[term], columns):
                            column.extend(more)
                    else:
                        field_postings[term] = columns
        summary = fold_summary_sections(reader.summary_sections() for reader in readers)
        return self._replace(names, documents, postings, summary)

    def replace_all(
        self,
        documents: list[tuple[int, Document, int]],
        postings: dict[str, dict[str, tuple]],
        summary: list[tuple[str, str, dict[str, SummaryEntry]]],
    ) -> SegmentMeta | None:
        """Commit one batch as the store's whole content.

        One manifest swap retires every segment — an engine's exact
        ``remove`` — so a crash leaves either the old store or exactly
        the batch; an empty batch leaves an empty store.
        """
        with self._commit_lock:
            names = {meta.name for meta in self.manifest.segments}
            return self._replace(names, documents, postings, summary)

    def _replace(
        self,
        names: set[str],
        documents: list[tuple[int, Document, int]],
        postings: dict[str, dict[str, tuple]],
        summary: list[tuple[str, str, dict[str, SummaryEntry]]],
    ) -> SegmentMeta | None:
        """Swap the ``names`` segments for one written from the batch (or
        for none when it is empty); the old directories go only after the
        swap (commit lock held)."""
        manifest = self.manifest
        survivors = [meta for meta in manifest.segments if meta.name not in names]
        merged_meta: SegmentMeta | None = None
        if documents:
            name = f"seg-{manifest.next_segment_id:06d}"
            writer = SegmentWriter(self._root() / name, name)
            merged_meta = writer.write(documents, postings, summary)
            survivors.append(merged_meta)
            survivors.sort(key=lambda meta: meta.doc_base)
        updated = dataclasses.replace(
            manifest,
            generation=manifest.generation + 1,
            next_segment_id=manifest.next_segment_id + 1,
            segments=survivors,
        )
        commit_manifest(self._root(), updated)
        self.manifest = updated
        retired = [reader for reader in self.readers if reader.name in names]
        readers = [reader for reader in self.readers if reader.name not in names]
        if merged_meta is not None:
            readers.append(SegmentReader(self.directory / merged_meta.name))
            readers.sort(key=lambda reader: reader.doc_base)
        self.readers = readers
        self.epoch += 1
        for reader in retired:
            reader.close()
            shutil.rmtree(reader.directory, ignore_errors=True)
        return merged_meta

    def merge_all(self) -> int:
        """Run merges until the policy finds nothing left; returns count."""
        merges = 0
        while self.merge_once() is not None:
            merges += 1
        return merges

    # -- housekeeping ------------------------------------------------------

    def sweep_orphans(self) -> int:
        """Delete segment directories a crash stranded; returns count."""
        live_names = {meta.name for meta in self.manifest.segments}
        swept = 0
        for child in self.directory.iterdir():
            if (
                child.is_dir()
                and child.name.startswith("seg-")
                and child.name not in live_names
            ):
                shutil.rmtree(child, ignore_errors=True)
                swept += 1
        return swept
