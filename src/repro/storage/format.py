"""Byte-level codecs for the immutable segment format.

Everything a segment persists — posting lists, term dictionaries,
summary columns, stored documents — is built from three primitives:

* **varints** — LEB128 unsigned integers, the universal length and
  delta encoding;
* **delta-encoded monotone sequences** — document ids within a posting
  list and positions within a posting are strictly/weakly increasing,
  so consecutive differences stay small and varint-friendly;
* **length-prefixed UTF-8 strings** — terms, field names, linkages,
  stored field values.

Encoders append into a caller-supplied ``bytearray`` (one allocation
per file, not per value); decoders read from any buffer supporting
``__getitem__`` — including an ``mmap.mmap``, which is how segment
readers decode straight from the page cache without copying the file
into the heap first.
"""

from __future__ import annotations

from array import array

__all__ = [
    "FORMAT_VERSION",
    "POSTINGS_BLOCK_SIZE",
    "StorageError",
    "encode_varint",
    "decode_varint",
    "encode_string",
    "decode_string",
    "encode_posting_list",
    "decode_posting_list",
    "count_posting_list",
    "scan_posting_block",
]

#: Version stamped into every segment header and manifest, and the
#: only one a reader accepts.  Version 2 added the ``blockmax.bin``
#: sidecar column.
FORMAT_VERSION = 2

#: Documents per posting block in the block-max column.  Small enough
#: that skipping a block saves real decode work, large enough that the
#: sidecar stays a sliver of the postings file.
POSTINGS_BLOCK_SIZE = 128


class StorageError(Exception):
    """Raised on corrupt, incompatible, or misused on-disk state."""


# -- varints ---------------------------------------------------------------


def encode_varint(out: bytearray, value: int) -> None:
    """Append ``value`` (>= 0) to ``out`` as a LEB128 varint."""
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_varint(buf, pos: int) -> tuple[int, int]:
    """Decode one varint at ``pos``; returns ``(value, next_pos)``."""
    result = 0
    shift = 0
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


# -- strings ---------------------------------------------------------------


def encode_string(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    encode_varint(out, len(raw))
    out += raw


def decode_string(buf, pos: int) -> tuple[str, int]:
    length, pos = decode_varint(buf, pos)
    raw = bytes(buf[pos : pos + length])
    return raw.decode("utf-8"), pos + length


# -- posting lists ---------------------------------------------------------
#
# One term's postings in one segment:
#
#   varint n_docs
#   n_docs × [ varint doc_delta, varint n_positions,
#              varint pos_0, varint pos_delta... ]
#
# ``doc_delta`` is the gap to the previous document id (the first is
# absolute); positions are weakly increasing so their deltas are >= 0.


def encode_posting_list(
    out: bytearray, doc_ids, tfs, positions, blocks: list | None = None
) -> None:
    """Append one term's posting columns to ``out``: doc ids ascending,
    their tfs, and every posting's positions flat in tf-sized runs (the
    layout of :class:`~repro.engine.index.TermState`).

    When ``blocks`` is a list, one ``(last_doc_id, start_offset,
    n_docs)`` triple is appended per :data:`POSTINGS_BLOCK_SIZE`-doc
    block, with ``start_offset`` relative to the list's first byte in
    ``out`` (the ``n_docs`` varint).  The encoded bytes are identical
    with or without block collection — blocks are a pure overlay.
    """
    base = len(out)
    encode_varint(out, len(doc_ids))
    previous_doc = 0
    block_start = len(out) - base
    block_first_slot = 0
    start = 0
    for slot, (doc_id, tf) in enumerate(zip(doc_ids, tfs)):
        if blocks is not None and slot and slot % POSTINGS_BLOCK_SIZE == 0:
            blocks.append((previous_doc, block_start, slot - block_first_slot))
            block_start = len(out) - base
            block_first_slot = slot
        encode_varint(out, doc_id - previous_doc)
        previous_doc = doc_id
        encode_varint(out, tf)
        previous_pos = 0
        for position in positions[start : start + tf]:
            encode_varint(out, position - previous_pos)
            previous_pos = position
        start += tf
    if blocks is not None and len(doc_ids):
        blocks.append(
            (previous_doc, block_start, len(doc_ids) - block_first_slot)
        )


def decode_posting_list(buf, pos: int) -> tuple[array, array, array]:
    """Decode one posting block at ``pos`` into the columns
    :func:`encode_posting_list` takes.

    Args:
        buf: any byte buffer (typically the segment's postings mmap).
        pos: offset of the block's ``n_docs`` varint.
    """
    n_docs, pos = decode_varint(buf, pos)
    doc_ids = array("q")
    tfs = array("I")
    positions = array("I")
    doc_id = 0
    for _ in range(n_docs):
        delta, pos = decode_varint(buf, pos)
        doc_id += delta
        n_positions, pos = decode_varint(buf, pos)
        position = 0
        for _ in range(n_positions):
            step, pos = decode_varint(buf, pos)
            position += step
            positions.append(position)
        doc_ids.append(doc_id)
        tfs.append(n_positions)
    return doc_ids, tfs, positions


def scan_posting_block(
    buf, pos: int, n_docs: int, previous_doc: int
) -> tuple[array, array]:
    """(doc ids, term frequencies) of one block, skipping positions.

    Args:
        buf: the postings buffer.
        pos: absolute offset of the block's first doc delta (a term
            offset plus a block's relative ``start_offset``).
        n_docs: documents in the block (from the block-max column).
        previous_doc: last doc id of the preceding block (0 for the
            first block — the encoding makes the first doc id of a list
            a delta from 0).

    The columns are ``array('q')`` / ``array('I')`` — 12 bytes per
    posting, which is what lets the pruned evaluator keep them warm.
    Positions are never decoded, only stepped over (one byte test per
    position byte): a probe needs only (doc id, tf), and that is the
    saving block-level access exists for.
    """
    doc_ids = array("q")
    tfs = array("I")
    doc_id = previous_doc
    for _ in range(n_docs):
        delta, pos = decode_varint(buf, pos)
        doc_id += delta
        n_positions, pos = decode_varint(buf, pos)
        for _ in range(n_positions):
            while buf[pos] & 0x80:
                pos += 1
            pos += 1
        doc_ids.append(doc_id)
        tfs.append(n_positions)
    return doc_ids, tfs


def count_posting_list(buf, pos: int) -> int:
    """Document count of a posting block without materializing it."""
    return decode_varint(buf, pos)[0]
