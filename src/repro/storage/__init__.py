"""Immutable segment storage for engines.

Write-once segments of packed columns (delta-encoded postings, term
dictionaries, stored fields) published under an atomically swapped
manifest, read back zero-copy through ``mmap``, and folded together by
tiered background merges.  An engine's index and document store are
the committed segments of one :class:`SegmentStore` plus a mutable
tail; a memory engine's store is one with no directory.
"""

from repro.storage.format import (
    FORMAT_VERSION,
    StorageError,
    decode_string,
    decode_varint,
    encode_string,
    encode_varint,
)
from repro.storage.manifest import (
    MANIFEST_NAME,
    Manifest,
    SegmentMeta,
    atomic_write_bytes,
    atomic_write_text,
    commit_manifest,
    read_manifest,
)
from repro.storage.merge import TieredMergePolicy
from repro.storage.segment import SegmentReader, SegmentWriter
from repro.storage.store import SegmentStore

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "Manifest",
    "SegmentMeta",
    "SegmentReader",
    "SegmentStore",
    "SegmentWriter",
    "StorageError",
    "TieredMergePolicy",
    "atomic_write_bytes",
    "atomic_write_text",
    "commit_manifest",
    "decode_string",
    "decode_varint",
    "encode_string",
    "encode_varint",
    "read_manifest",
]
