"""The segment store: committed segments + the commit protocol.

A :class:`SegmentStore` owns one directory: the committed manifest,
one :class:`~repro.storage.segment.SegmentReader` per live segment,
and the tombstone set.  A store with no directory is what a memory
engine sits over: it has no manifest file, no readers and no
tombstones, and refuses every commit.  All mutation funnels through
four commit operations — :meth:`commit_segment` (a flush),
:meth:`merge_once` (fold a planned group into one segment),
:meth:`add_tombstones` and :meth:`replace_all` (an engine's exact
removal) — each of which writes the new state *beside* the old and
publishes it with a single atomic manifest swap, so readers and
crashes only ever observe a fully committed store.

Two counters make cache invalidation precise for the index and
document-store views stacked on top:

* :attr:`epoch` bumps on **every** commit (the physical layout moved:
  re-derive anything holding reader references or decoded postings);
* :attr:`content_epoch` bumps only when **observable content** changed
  (tombstones, a replacement).  Flushes move the mutable tail into a segment and
  merges rewrite bytes, but neither changes any query answer, so
  derived caches keyed on content (term expansions, vocabularies) ride
  through them untouched.
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil
import threading
import time

from repro.engine.documents import CommittedSegments, Document
from repro.engine.index import SummaryEntry, fold_summary_sections
from repro.federation.executor import submit_background
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
        merge_policy: the tiered policy steering :meth:`maybe_merge`.
    """

    #: A store with no directory keeps this empty manifest; its readers,
    #: tombstones and epochs stay the base's empty ones.
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
        self.tombstones: set[int] = set(manifest.tombstones)
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

    def live_doc_count(self) -> int:
        return sum(meta.doc_count for meta in self.manifest.segments) - len(
            self.tombstones
        )

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
            meta = self._replace(set(), documents, postings, summary, set())
        get_registry().histogram(
            "storage_flush_ms",
            "Wall-clock time of one tail flush into an immutable segment.",
        ).observe((time.perf_counter() - started) * 1000.0)
        return meta

    def add_tombstones(self, doc_ids) -> int:
        """Mark committed documents deleted; returns how many were new.

        Tombstoned documents stop matching queries immediately (readers
        filter them during posting decode) and are physically dropped
        by the next merge covering their segment.
        """
        with self._commit_lock:
            fresh = {
                doc_id
                for doc_id in doc_ids
                if doc_id not in self.tombstones and self._covers(doc_id)
            }
            if not fresh:
                return 0
            self.tombstones |= fresh
            self._publish(tombstones=sorted(self.tombstones))
            self.epoch += 1
            self.content_epoch += 1
        return len(fresh)

    def _publish(self, **changes) -> None:
        """Commit the manifest with ``changes`` as the next generation
        (commit lock held)."""
        updated = dataclasses.replace(
            self.manifest, generation=self.manifest.generation + 1, **changes
        )
        commit_manifest(self._root(), updated)
        self.manifest = updated

    def _root(self) -> pathlib.Path:
        """The directory a commit writes to; a store with none refuses."""
        if self.directory is None:
            raise StorageError("a store with no storage_dir commits nothing")
        return self.directory

    def _covers(self, doc_id: int) -> bool:
        return any(reader.slot_of(doc_id) is not None for reader in self.readers)

    # -- merging -----------------------------------------------------------

    def plan_merge(self) -> list[SegmentMeta] | None:
        return self.merge_policy.plan(self.manifest.segments)

    def merge_once(self) -> SegmentMeta | None:
        """Execute one planned merge; returns the new segment (if any).

        The group's postings are decoded with tombstoned documents
        filtered out, re-encoded into one segment of the next tier,
        and published with a single manifest swap that also retires
        the consumed tombstones.  Old directories are deleted only
        after the swap — a crash at any point leaves either the old
        committed state or the new one.
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
        live = self.live

        documents: list[tuple[int, Document, int]] = []
        postings: dict[str, dict[str, tuple]] = {}
        consumed: set[int] = set()
        for reader in readers:
            for slot, doc_id in enumerate(reader.doc_ids()):
                if live(doc_id):
                    documents.append(
                        (doc_id, reader.document_at(slot), reader.token_count_at(slot))
                    )
                else:
                    consumed.add(doc_id)
            # Readers ascend by doc base, so per-term concatenation keeps
            # every column doc-id ascending.
            for field_name in reader.fields():
                field_postings = postings.setdefault(field_name, {})
                for term in reader.vocabulary(field_name):
                    columns = reader.term_handle(field_name, term).positions(live)
                    if term in field_postings:
                        for column, more in zip(field_postings[term], columns):
                            column.extend(more)
                    elif columns[0]:
                        field_postings[term] = columns
        summary = fold_summary_sections(reader.summary_sections() for reader in readers)
        return self._replace(names, documents, postings, summary, consumed)

    def replace_all(
        self,
        documents: list[tuple[int, Document, int]],
        postings: dict[str, dict[str, tuple]],
        summary: list[tuple[str, str, dict[str, SummaryEntry]]],
    ) -> SegmentMeta | None:
        """Commit one batch as the store's whole content.

        One manifest swap retires every segment and tombstone — an
        engine's exact ``remove`` — so a crash leaves either the old
        store or exactly the batch; an empty batch leaves an empty store.
        """
        with self._commit_lock:
            names = {meta.name for meta in self.manifest.segments}
            meta = self._replace(names, documents, postings, summary, self.tombstones)
            self.content_epoch += 1
        return meta

    def _replace(
        self,
        names: set[str],
        documents: list[tuple[int, Document, int]],
        postings: dict[str, dict[str, tuple]],
        summary: list[tuple[str, str, dict[str, SummaryEntry]]],
        consumed: set[int],
    ) -> SegmentMeta | None:
        """Swap the ``names`` segments for one written from the batch (or
        for none when it is empty), retiring the ``consumed`` tombstones;
        the old directories go only after the swap (commit lock held)."""
        manifest = self.manifest
        survivors = [meta for meta in manifest.segments if meta.name not in names]
        merged_meta: SegmentMeta | None = None
        if documents:
            name = f"seg-{manifest.next_segment_id:06d}"
            writer = SegmentWriter(self._root() / name, name)
            merged_meta = writer.write(documents, postings, summary)
            survivors.append(merged_meta)
            survivors.sort(key=lambda meta: meta.doc_base)
        remaining = sorted(self.tombstones - consumed)
        self._publish(
            next_segment_id=manifest.next_segment_id + 1,
            segments=survivors,
            tombstones=remaining,
        )
        self.tombstones = set(remaining)
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
        while self.plan_merge():
            if self.merge_once() is None and not self.plan_merge():
                break
            merges += 1
        return merges

    def maybe_merge(self, executor: object | None = None) -> bool:
        """Kick off merging when the policy wants one.

        With an ``executor`` (anything exposing ``submit``, e.g. the
        federation's executors), merging runs as a fire-and-forget
        background task via :func:`submit_background` — failures are
        logged and counted, never raised into the indexing path.
        Returns whether any merge work was scheduled or run.
        """
        if not self.plan_merge():
            return False
        if executor is not None:
            submit_background(executor, self.merge_all, task_name="segment-merge")
            return True
        return self.merge_all() > 0

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
