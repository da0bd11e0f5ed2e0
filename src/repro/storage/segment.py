"""One immutable segment: write-once files, mmap-backed reads.

A segment is a directory of flat files covering a contiguous batch of
documents:

==================  ======================================================
``postings.bin``    delta-encoded posting blocks, one per (field, term)
``lexicon.bin``     per field: sorted terms with block offsets
``blockmax.bin``    per term: per-block (last doc id, offset, doc count,
                    max tf, min doc length) for block-skipping (v2+)
``summary.bin``     (field, language) → word → (postings, df) columns
``docs.bin``        stored documents (linkage, language, fields)
``linkages.bin``    the linkage column alone (fast by-linkage warming)
``docs.idx``        ``array('q')`` offsets into ``docs.bin``
``ids.bin``         ``array('q')`` global doc ids, ascending
``counts.bin``      ``array('q')`` per-document token counts
``segment.json``    header: name, doc span, format version, file sizes
==================  ======================================================

:class:`SegmentWriter` writes a segment exactly once.
:class:`SegmentReader` maps ``postings.bin`` and ``docs.bin`` into the
address space and decodes on demand: opening a reader touches only the
header and the three small integer columns, so a store with gigabytes
of postings is "open" in milliseconds and pays for a posting list or a
stored document only when a query first asks for it.
"""

from __future__ import annotations

import json
import mmap
import pathlib
from array import array
from bisect import bisect_left
from functools import partial

from repro.engine.documents import Document
from repro.engine.index import SummaryEntry
from repro.storage.format import (
    FORMAT_VERSION,
    POSTINGS_BLOCK_SIZE,
    SUPPORTED_VERSIONS,
    StorageError,
    count_posting_list,
    decode_posting_list,
    decode_string,
    decode_varint,
    encode_posting_list,
    encode_string,
    encode_varint,
    scan_posting_block,
)
from repro.storage.manifest import (
    SegmentMeta,
    atomic_write_text,
    sync_directory,
    write_synced,
)

__all__ = ["SegmentWriter", "SegmentReader", "TermBlocks", "TermHandle"]

_FILES = (
    "postings.bin",
    "lexicon.bin",
    "summary.bin",
    "docs.bin",
    "linkages.bin",
    "docs.idx",
    "ids.bin",
    "counts.bin",
)

#: Files added by format version 2; their absence marks an old segment.
_V2_FILES = ("blockmax.bin",)


class SegmentWriter:
    """Writes one immutable segment directory.

    Args:
        directory: the segment directory to create (parent must exist;
            the directory itself must not — segments are write-once).
        name: the manifest name of the segment (``seg-000042``).
    """

    def __init__(self, directory: str | pathlib.Path, name: str) -> None:
        self.directory = pathlib.Path(directory)
        self.name = name
        if self.directory.exists():
            raise StorageError(f"segment directory already exists: {self.directory}")

    def write(
        self,
        documents: list[tuple[int, Document, int]],
        postings: dict[str, dict[str, tuple]],
        summary: list[tuple[str, str, dict[str, SummaryEntry]]],
    ) -> SegmentMeta:
        """Write the segment; returns its manifest entry.

        Args:
            documents: ``(global doc id, document, token count)`` rows,
                ascending by id.
            postings: ``field → term → (doc ids, tfs, positions)``
                columns with global doc ids (doc-id ascending; see
                :func:`~repro.storage.format.encode_posting_list`).
            summary: ``(field, language, word → stats)`` sections.
        """
        if not documents:
            raise StorageError("refusing to write an empty segment")
        self.directory.mkdir()

        ids = array("q", (doc_id for doc_id, _, _ in documents))
        if any(ids[i] >= ids[i + 1] for i in range(len(ids) - 1)):
            raise StorageError("segment documents must ascend by doc id")
        counts = array("q", (count for _, _, count in documents))

        docs_blob = bytearray()
        linkages_blob = bytearray()
        offsets = array("q")
        for _, document, _ in documents:
            offsets.append(len(docs_blob))
            encode_string(docs_blob, document.linkage)
            encode_string(docs_blob, document.language)
            fields = dict(document.fields)
            encode_varint(docs_blob, len(fields))
            for field_name, value in fields.items():
                encode_string(docs_blob, field_name)
                encode_string(docs_blob, value)
            encode_string(linkages_blob, document.linkage)

        # The block-max column rides along with the postings encode:
        # per term, per POSTINGS_BLOCK_SIZE-doc block, the block's last
        # doc id, byte offset (relative to the term's posting list),
        # document count, max term frequency and min document length —
        # everything a reader needs to bound a block's best possible
        # score and to decode just that block.  All five sequences are
        # encoded as varints (ids and offsets delta'd, both ascending).
        count_of = dict(zip(ids, counts))
        postings_blob = bytearray()
        lexicon_blob = bytearray()
        blockmax_blob = bytearray()
        encode_varint(lexicon_blob, len(postings))
        encode_varint(blockmax_blob, len(postings))
        for field_name in sorted(postings):
            terms = postings[field_name]
            encode_string(lexicon_blob, field_name)
            encode_varint(lexicon_blob, len(terms))
            encode_string(blockmax_blob, field_name)
            encode_varint(blockmax_blob, len(terms))
            for term in sorted(terms):
                doc_ids, tfs, positions = terms[term]
                encode_string(lexicon_blob, term)
                encode_varint(lexicon_blob, len(postings_blob))
                blocks: list[tuple[int, int, int]] = []
                encode_posting_list(postings_blob, doc_ids, tfs, positions, blocks)
                encode_varint(blockmax_blob, len(blocks))
                previous_last = 0
                previous_start = 0
                for number, (last_doc, start, n_in_block) in enumerate(blocks):
                    first = number * POSTINGS_BLOCK_SIZE
                    chunk = slice(first, first + n_in_block)
                    encode_varint(blockmax_blob, last_doc - previous_last)
                    encode_varint(blockmax_blob, start - previous_start)
                    encode_varint(blockmax_blob, n_in_block)
                    encode_varint(blockmax_blob, max(tfs[chunk]))
                    encode_varint(
                        blockmax_blob,
                        min(count_of[doc_id] for doc_id in doc_ids[chunk]),
                    )
                    previous_last = last_doc
                    previous_start = start

        summary_blob = bytearray()
        encode_varint(summary_blob, len(summary))
        for field_name, language, words in sorted(
            summary, key=lambda section: (section[0], section[1])
        ):
            encode_string(summary_blob, field_name)
            encode_string(summary_blob, language)
            encode_varint(summary_blob, len(words))
            for word in sorted(words):
                entry = words[word]
                encode_string(summary_blob, word)
                encode_varint(summary_blob, entry.postings)
                encode_varint(summary_blob, entry.document_frequency)

        payloads = {
            "postings.bin": bytes(postings_blob),
            "lexicon.bin": bytes(lexicon_blob),
            "blockmax.bin": bytes(blockmax_blob),
            "summary.bin": bytes(summary_blob),
            "docs.bin": bytes(docs_blob),
            "linkages.bin": bytes(linkages_blob),
            "docs.idx": offsets.tobytes(),
            "ids.bin": ids.tobytes(),
            "counts.bin": counts.tobytes(),
        }
        for file_name, payload in payloads.items():
            write_synced(self.directory / file_name, payload)

        size_bytes = sum(len(payload) for payload in payloads.values())
        header = {
            "format_version": FORMAT_VERSION,
            "name": self.name,
            "doc_base": ids[0],
            "doc_count": len(ids),
            "size_bytes": size_bytes,
            "files": {name: len(payload) for name, payload in payloads.items()},
        }
        atomic_write_text(self.directory / "segment.json", json.dumps(header, indent=1))
        # Every file is on disk; the directory entries naming them must
        # be too before a manifest names the segment.
        sync_directory(self.directory)
        return SegmentMeta(
            name=self.name,
            doc_base=ids[0],
            doc_count=len(ids),
            size_bytes=size_bytes,
        )


class TermBlocks:
    """One term's block-max metadata: five parallel ascending columns."""

    __slots__ = ("last_ids", "starts", "counts", "max_tfs", "min_lens")

    def __init__(self) -> None:
        self.last_ids: list[int] = []
        self.starts: list[int] = []
        self.counts: list[int] = []
        self.max_tfs: list[int] = []
        self.min_lens: list[int] = []

    def __len__(self) -> int:
        return len(self.last_ids)


class TermHandle:
    """Block-level access to one term's postings in one segment.

    Held by the segmented index's memoized term accessor, so it — and
    every block it decoded — lives until the store's layout moves
    (flush, merge, tombstone); it holds the term's posting-list offset
    and (for v2 segments) its block-max column, and decodes **single
    blocks** on demand — skipping position deltas — so probing one
    document touches at most one block's bytes, once.  Old (v1)
    segments fall back to scanning the whole list once and answering
    probes from that memo: correct, just without the skip.
    """

    __slots__ = ("_buf", "_offset", "blocks", "_block_memo", "_full_memo")

    def __init__(self, buf, offset: int, blocks: TermBlocks | None) -> None:
        self._buf = buf
        self._offset = offset
        self.blocks = blocks
        # block number -> (doc ids, tfs) columns.  Not tombstone-
        # filtered: a tombstone commit moves the layout key, which
        # retires the handle with everything in here.
        self._block_memo: dict[int, tuple[array, array]] = {}
        self._full_memo: tuple[array, array] | None = None

    def scan(self, live=None) -> tuple[array, array]:
        """(doc ids, tfs) of the whole list, tombstoned ids dropped."""
        n_docs, pos = decode_varint(self._buf, self._offset)
        return scan_posting_block(self._buf, pos, n_docs, 0, live)

    def positions(self, live=None) -> tuple[array, array, array]:
        """:meth:`scan` plus the positions — the whole list decoded."""
        return decode_posting_list(self._buf, self._offset, live)

    def _full_scan(self) -> tuple[array, array]:
        if self._full_memo is None:
            self._full_memo = self.scan()
        return self._full_memo

    def document_count(self, live=None) -> int:
        """Exact df contribution of this segment (live-filtered)."""
        if live is None and self.blocks is not None:
            return sum(self.blocks.counts)
        return count_posting_list(self._buf, self._offset, live)

    def max_term_frequency(self) -> int:
        blocks = self.blocks
        if blocks is not None:
            return max(blocks.max_tfs, default=0)
        _, tfs = self._full_scan()
        return max(tfs, default=0)

    def min_doc_length(self) -> int | None:
        """Smallest doc length among this term's postings, if recorded."""
        blocks = self.blocks
        if blocks is not None and len(blocks):
            return min(blocks.min_lens)
        return None

    def spans(self, ceiling: int):
        """This segment's part of a term's run of spans (see
        ``TermState.spans``): one per block, bounded by the block's
        (max tf, min doc length) and decoded on first use — or, for a
        segment that predates the column, one unbounded span up to
        ``ceiling`` over the memoized full scan."""
        blocks = self.blocks
        if blocks is None:
            yield ceiling - 1, None, self._full_scan
            return
        for number, last_id in enumerate(blocks.last_ids):
            bound = (blocks.max_tfs[number], blocks.min_lens[number])
            yield last_id, bound, partial(self._block, number)

    def _block(self, number: int) -> tuple[array, array]:
        entry = self._block_memo.get(number)
        if entry is None:
            blocks = self.blocks
            entry = self._block_memo[number] = scan_posting_block(
                self._buf,
                self._offset + blocks.starts[number],
                blocks.counts[number],
                blocks.last_ids[number - 1] if number else 0,
            )
        return entry


class SegmentReader:
    """Zero-copy reads over one committed segment.

    ``postings.bin`` and ``docs.bin`` are memory-mapped; the lexicon
    and summary columns are parsed lazily on first use.  Readers are
    safe to share between threads for reads (all state after lazy
    initialization is immutable) and hold their mmaps until
    :meth:`close`.
    """

    def __init__(self, directory: str | pathlib.Path) -> None:
        self.directory = pathlib.Path(directory)
        header_path = self.directory / "segment.json"
        try:
            header = json.loads(header_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise StorageError(
                f"unreadable segment header at {header_path}: {error}"
            ) from error
        if header.get("format_version") not in SUPPORTED_VERSIONS:
            raise StorageError(
                f"unsupported segment format version in {header_path}"
            )
        self.format_version: int = header["format_version"]
        self.name: str = header["name"]
        self.doc_base: int = header["doc_base"]
        self.doc_count: int = header["doc_count"]
        self.size_bytes: int = header["size_bytes"]
        required = _FILES + (_V2_FILES if self.format_version >= 2 else ())
        for file_name in required:
            if not (self.directory / file_name).exists():
                raise StorageError(f"segment {self.name} is missing {file_name}")

        self._postings_map = self._map("postings.bin")
        self._docs_map = self._map("docs.bin")
        self._ids = array("q")
        self._ids.frombytes((self.directory / "ids.bin").read_bytes())
        self._counts = array("q")
        self._counts.frombytes((self.directory / "counts.bin").read_bytes())
        self._offsets = array("q")
        self._offsets.frombytes((self.directory / "docs.idx").read_bytes())
        if not (len(self._ids) == len(self._counts) == len(self._offsets)):
            raise StorageError(f"segment {self.name} has torn document columns")

        # Lazily parsed: field → {term → postings offset} and the
        # sorted vocabulary per field; summary sections; the block-max
        # column (v2 segments only).
        self._lexicon: dict[str, dict[str, int]] | None = None
        self._vocab: dict[str, list[str]] | None = None
        self._summary: list[tuple[str, str, dict[str, SummaryEntry]]] | None = None
        self._blockmax: dict[str, dict[str, "TermBlocks"]] | None = None

    def _map(self, file_name: str):
        path = self.directory / file_name
        with open(path, "rb") as handle:
            if path.stat().st_size == 0:
                return b""
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)

    def close(self) -> None:
        for buf in (self._postings_map, self._docs_map):
            if isinstance(buf, mmap.mmap):
                buf.close()

    # -- lexicon and postings ---------------------------------------------

    def _load_lexicon(self) -> dict[str, dict[str, int]]:
        if self._lexicon is None:
            buf = (self.directory / "lexicon.bin").read_bytes()
            lexicon: dict[str, dict[str, int]] = {}
            vocab: dict[str, list[str]] = {}
            pos = 0
            n_fields, pos = decode_varint(buf, pos)
            for _ in range(n_fields):
                field_name, pos = decode_string(buf, pos)
                n_terms, pos = decode_varint(buf, pos)
                offsets: dict[str, int] = {}
                terms: list[str] = []
                for _ in range(n_terms):
                    term, pos = decode_string(buf, pos)
                    offset, pos = decode_varint(buf, pos)
                    offsets[term] = offset
                    terms.append(term)
                lexicon[field_name] = offsets
                vocab[field_name] = terms  # written sorted
            self._lexicon = lexicon
            self._vocab = vocab
        return self._lexicon

    def fields(self) -> list[str]:
        return sorted(self._load_lexicon())

    def vocabulary(self, field: str) -> list[str]:
        self._load_lexicon()
        assert self._vocab is not None
        return self._vocab.get(field, [])

    def _load_blockmax(self) -> dict[str, dict[str, TermBlocks]]:
        """Parse ``blockmax.bin`` (v2 segments; empty mapping for v1).

        Terms are not repeated in the column — entries align with the
        lexicon's sorted term order per field, so the parse walks both
        in lockstep.
        """
        if self._blockmax is None:
            if self.format_version < 2:
                self._blockmax = {}
                return self._blockmax
            self._load_lexicon()
            assert self._vocab is not None
            buf = (self.directory / "blockmax.bin").read_bytes()
            parsed: dict[str, dict[str, TermBlocks]] = {}
            pos = 0
            n_fields, pos = decode_varint(buf, pos)
            for _ in range(n_fields):
                field_name, pos = decode_string(buf, pos)
                n_terms, pos = decode_varint(buf, pos)
                terms = self._vocab.get(field_name, [])
                if len(terms) != n_terms:
                    raise StorageError(
                        f"segment {self.name}: blockmax/lexicon term count "
                        f"mismatch in field {field_name!r}"
                    )
                by_term: dict[str, TermBlocks] = {}
                for term in terms:
                    blocks = TermBlocks()
                    n_blocks, pos = decode_varint(buf, pos)
                    last_id = 0
                    start = 0
                    for _ in range(n_blocks):
                        delta, pos = decode_varint(buf, pos)
                        last_id += delta
                        step, pos = decode_varint(buf, pos)
                        start += step
                        count, pos = decode_varint(buf, pos)
                        max_tf, pos = decode_varint(buf, pos)
                        min_len, pos = decode_varint(buf, pos)
                        blocks.last_ids.append(last_id)
                        blocks.starts.append(start)
                        blocks.counts.append(count)
                        blocks.max_tfs.append(max_tf)
                        blocks.min_lens.append(min_len)
                    by_term[term] = blocks
                parsed[field_name] = by_term
            self._blockmax = parsed
        return self._blockmax

    def term_handle(self, field: str, term: str) -> TermHandle | None:
        """Block-level access to one term, or None when absent."""
        offset = self._load_lexicon().get(field, {}).get(term)
        if offset is None:
            return None
        blocks = self._load_blockmax().get(field, {}).get(term)
        return TermHandle(self._postings_map, offset, blocks)

    # -- summary columns ----------------------------------------------------

    def summary_sections(self) -> list[tuple[str, str, dict[str, SummaryEntry]]]:
        if self._summary is None:
            buf = (self.directory / "summary.bin").read_bytes()
            sections: list[tuple[str, str, dict[str, SummaryEntry]]] = []
            pos = 0
            n_sections, pos = decode_varint(buf, pos)
            for _ in range(n_sections):
                field_name, pos = decode_string(buf, pos)
                language, pos = decode_string(buf, pos)
                n_words, pos = decode_varint(buf, pos)
                words: dict[str, SummaryEntry] = {}
                for _ in range(n_words):
                    word, pos = decode_string(buf, pos)
                    postings, pos = decode_varint(buf, pos)
                    document_frequency, pos = decode_varint(buf, pos)
                    words[word] = SummaryEntry(postings, document_frequency)
                sections.append((field_name, language, words))
            self._summary = sections
        return self._summary

    # -- documents ----------------------------------------------------------

    @property
    def doc_ceiling(self) -> int:
        """One past the highest global doc id this segment covers."""
        return self._ids[-1] + 1 if len(self._ids) else self.doc_base

    def doc_ids(self) -> array:
        return self._ids

    def slot_of(self, doc_id: int) -> int | None:
        """The local slot of a global doc id, or None if not covered."""
        slot = bisect_left(self._ids, doc_id)
        if slot < len(self._ids) and self._ids[slot] == doc_id:
            return slot
        return None

    def token_count_at(self, slot: int) -> int:
        return self._counts[slot]

    def document_at(self, slot: int) -> Document:
        buf = self._docs_map
        pos = self._offsets[slot]
        linkage, pos = decode_string(buf, pos)
        language, pos = decode_string(buf, pos)
        n_fields, pos = decode_varint(buf, pos)
        fields: dict[str, str] = {}
        for _ in range(n_fields):
            name, pos = decode_string(buf, pos)
            value, pos = decode_string(buf, pos)
            fields[name] = value
        return Document(linkage, fields, language)

    def linkages(self) -> list[str]:
        """The linkage column, decoded without touching stored fields."""
        buf = (self.directory / "linkages.bin").read_bytes()
        pos = 0
        linkages: list[str] = []
        for _ in range(len(self._ids)):
            linkage, pos = decode_string(buf, pos)
            linkages.append(linkage)
        return linkages
