"""Checkpoint/restore for summary indexes and cache tiers.

The engine's documents and postings checkpoint through the segment
store; this module covers the *other* state a warm restart needs:

* :class:`~repro.metasearch.summary_index.SummaryIndex` — saved as its
  packed term-shard columns (raw ``array('q')`` bytes), source columns
  and exact corpus statistics, plus the original summaries as a SOIF
  stream.  The index's **generation counter rides along as the
  checkpoint cursor**: a leaf broker that checkpoints also records its
  delta-log position, so a restored leaf replays only the log *tail*
  written after the checkpoint instead of the whole history.
* :class:`~repro.cache.QueryResultCache` — entries pickled in LRU
  order.  Stored-at times are translated to **ages** on save and
  re-anchored to the restoring process's clock on load, because the
  monotonic clock restarts with the process; an entry with 40s of TTL
  left keeps 40s of TTL left.

Every save/load lands in the ``checkpoint_save_ms`` /
``checkpoint_load_ms`` histograms, labelled by kind.
"""

from __future__ import annotations

import pathlib
import pickle
import time
from array import array

from repro.cache.results import QueryResultCache
from repro.metasearch.summary_index import SummaryIndex, _TermShard
from repro.observability.metrics import get_registry
from repro.starts.metadata import SContentSummary
from repro.starts.soif import dump_soif, parse_soif_stream
from repro.storage.format import (
    FORMAT_VERSION,
    StorageError,
    decode_string,
    decode_varint,
    encode_string,
    encode_varint,
)
from repro.storage.manifest import atomic_write_bytes

__all__ = [
    "save_summary_index",
    "load_summary_index",
    "save_leaf_checkpoint",
    "load_leaf_checkpoint",
    "save_cache",
    "load_cache",
]

_SUMMARY_MAGIC = b"RSIX"
_LEAF_MAGIC = b"RLFC"
_CACHE_MAGIC = b"RCCK"


def _observe(name: str, kind: str, started: float) -> None:
    get_registry().histogram(
        name,
        "Wall-clock time of checkpoint save/load operations.",
        labels=("kind",),
    ).labels(kind=kind).observe((time.perf_counter() - started) * 1000.0)


# -- summary index ---------------------------------------------------------


def _index_blob(index: SummaryIndex) -> bytearray:
    """``index`` serialized as its exact packed columns (no framing)."""
    blob = bytearray()
    encode_varint(blob, index.generation)
    encode_varint(blob, index._clamped_mass_total)

    source_ids = index._source_ids
    encode_varint(blob, len(source_ids))
    for ordinal, source_id in enumerate(source_ids):
        if source_id is None:
            blob.append(0)
            continue
        blob.append(1)
        encode_string(blob, source_id)
        encode_varint(blob, index._num_docs[ordinal])
        encode_varint(blob, index._word_mass[ordinal])
        blob.append(1 if index._case_sensitive[ordinal] else 0)
    encode_varint(blob, len(index._free))
    for ordinal in index._free:
        encode_varint(blob, ordinal)

    shards = index._shards
    encode_varint(blob, len(shards))
    for word, shard in shards.items():
        encode_string(blob, word)
        encode_varint(blob, shard.df_positive)
        encode_varint(blob, len(shard.ordinals))
        blob += shard.ordinals.tobytes()
        blob += shard.document_frequencies.tobytes()
        blob += shard.postings.tobytes()

    summaries = index._summaries
    encode_varint(blob, len(summaries))
    for source_id in summaries:
        encode_string(blob, source_id)
    soif = dump_soif(
        [summaries[source_id].to_soif() for source_id in summaries]
    ).encode("utf-8")
    encode_varint(blob, len(soif))
    blob += soif
    return blob


def _index_from_blob(buf: bytes, pos: int) -> tuple[SummaryIndex, int]:
    """The inverse of :func:`_index_blob`; returns (index, next pos)."""
    index = SummaryIndex()
    generation, pos = decode_varint(buf, pos)
    index._clamped_mass_total, pos = decode_varint(buf, pos)

    n_ordinals, pos = decode_varint(buf, pos)
    for ordinal in range(n_ordinals):
        live = buf[pos]
        pos += 1
        if not live:
            index._source_ids.append(None)
            index._num_docs.append(0)
            index._word_mass.append(0)
            index._case_sensitive.append(False)
            index._source_terms.append(())
            continue
        source_id, pos = decode_string(buf, pos)
        num_docs, pos = decode_varint(buf, pos)
        word_mass, pos = decode_varint(buf, pos)
        case_sensitive = bool(buf[pos])
        pos += 1
        index._source_ids.append(source_id)
        index._num_docs.append(num_docs)
        index._word_mass.append(word_mass)
        index._case_sensitive.append(case_sensitive)
        index._source_terms.append(())
        index._ordinal_of[source_id] = ordinal
    n_free, pos = decode_varint(buf, pos)
    for _ in range(n_free):
        ordinal, pos = decode_varint(buf, pos)
        index._free.append(ordinal)

    item_size = array("q").itemsize
    terms_of: dict[int, list[str]] = {}
    n_shards, pos = decode_varint(buf, pos)
    for _ in range(n_shards):
        word, pos = decode_string(buf, pos)
        shard = _TermShard()
        shard.df_positive, pos = decode_varint(buf, pos)
        length, pos = decode_varint(buf, pos)
        span = length * item_size
        for column in (shard.ordinals, shard.document_frequencies, shard.postings):
            column.frombytes(buf[pos : pos + span])
            pos += span
        shard.positions = {
            ordinal: slot for slot, ordinal in enumerate(shard.ordinals)
        }
        index._shards[word] = shard
        for ordinal in shard.ordinals:
            terms_of.setdefault(ordinal, []).append(word)
    for ordinal, words in terms_of.items():
        index._source_terms[ordinal] = tuple(words)

    n_summaries, pos = decode_varint(buf, pos)
    order: list[str] = []
    for _ in range(n_summaries):
        source_id, pos = decode_string(buf, pos)
        order.append(source_id)
    soif_len, pos = decode_varint(buf, pos)
    objects = parse_soif_stream(buf[pos : pos + soif_len])
    pos += soif_len
    if len(objects) != n_summaries:
        raise StorageError("summary checkpoint is torn: SOIF count mismatch")
    for source_id, obj in zip(order, objects):
        index._summaries[source_id] = SContentSummary.from_soif(obj)

    index.generation = generation
    return index, pos


def save_summary_index(index: SummaryIndex, path: str | pathlib.Path) -> int:
    """Checkpoint ``index`` to ``path`` (atomic); returns its generation.

    The file captures the exact internal columns — shard slot order,
    ordinal assignments, the free list, the integer corpus totals — so
    the restored index is *bit-identical* to the saved one: every
    selector score comes out the same floats.
    """
    started = time.perf_counter()
    blob = bytearray()
    blob += _SUMMARY_MAGIC
    encode_varint(blob, FORMAT_VERSION)
    blob += _index_blob(index)
    atomic_write_bytes(pathlib.Path(path), bytes(blob))
    _observe("checkpoint_save_ms", "summary_index", started)
    return index.generation


def load_summary_index(path: str | pathlib.Path) -> SummaryIndex:
    """Rebuild a checkpointed :class:`SummaryIndex`, bit-identically."""
    started = time.perf_counter()
    buf = pathlib.Path(path).read_bytes()
    if buf[:4] != _SUMMARY_MAGIC:
        raise StorageError(f"not a summary-index checkpoint: {path}")
    pos = 4
    version, pos = decode_varint(buf, pos)
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported checkpoint version: {version}")
    index, _ = _index_from_blob(buf, pos)
    _observe("checkpoint_load_ms", "summary_index", started)
    return index


# -- leaf brokers ----------------------------------------------------------


def save_leaf_checkpoint(broker, path: str | pathlib.Path) -> int:
    """Checkpoint a :class:`~repro.broker.leaf.LeafBroker`'s shard.

    Records the broker's **delta-log position** alongside its index, so
    a restart only replays the deltas logged after this point (see
    :func:`load_leaf_checkpoint`).  Returns that position.
    """
    started = time.perf_counter()
    log_position = broker.log_position
    blob = bytearray()
    blob += _LEAF_MAGIC
    encode_varint(blob, FORMAT_VERSION)
    encode_string(blob, broker.leaf_id)
    encode_varint(blob, log_position)
    blob += _index_blob(broker.index)
    atomic_write_bytes(pathlib.Path(path), bytes(blob))
    _observe("checkpoint_save_ms", "leaf", started)
    return log_position


def load_leaf_checkpoint(path: str | pathlib.Path):
    """Warm a fresh leaf broker from a checkpoint.

    The broker starts from the checkpointed index, and its
    ``restored_log_position`` says how much of the upstream delta
    stream the checkpoint already covers — the caller replays only
    ``deltas[restored_log_position:]`` through
    :meth:`~repro.broker.leaf.LeafBroker.apply_delta` to catch up,
    never the whole history.
    """
    from repro.broker.leaf import LeafBroker

    started = time.perf_counter()
    buf = pathlib.Path(path).read_bytes()
    if buf[:4] != _LEAF_MAGIC:
        raise StorageError(f"not a leaf checkpoint: {path}")
    pos = 4
    version, pos = decode_varint(buf, pos)
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported checkpoint version: {version}")
    leaf_id, pos = decode_string(buf, pos)
    log_position, pos = decode_varint(buf, pos)
    broker = LeafBroker(leaf_id)
    broker.index, _ = _index_from_blob(buf, pos)
    broker.log_position = broker.restored_log_position = log_position
    _observe("checkpoint_load_ms", "leaf", started)
    return broker


# -- the result cache ------------------------------------------------------


def save_cache(cache: QueryResultCache, path: str | pathlib.Path) -> int:
    """Checkpoint a cache's live entries (atomic); returns the count.

    Entries are written in LRU order (least recent first) so a restore
    reproduces the eviction order exactly, each with its *age* at save
    time — monotonic clocks do not survive a process, remaining TTL does.
    """
    started = time.perf_counter()
    rows = cache.checkpoint_rows()
    payload = _CACHE_MAGIC + pickle.dumps(
        {"version": FORMAT_VERSION, "rows": rows},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    atomic_write_bytes(pathlib.Path(path), payload)
    _observe("checkpoint_save_ms", "cache", started)
    return len(rows)


def load_cache(cache: QueryResultCache, path: str | pathlib.Path) -> int:
    """Restore checkpointed entries into an *empty* ``cache``.

    Each entry's remaining TTL is preserved: its saved age is
    subtracted from the restoring cache's current clock, so an entry
    that had 40s of freshness left still has 40s left (entries already
    expired at save time restore as already expired and fall out on
    first read).  Rows go in through the cache's own eviction, so a
    checkpoint from a larger cache keeps its most recent ``capacity``
    entries.  Returns how many entries the cache holds afterwards.

    Raises:
        StorageError: if the file is not a cache checkpoint or the
            cache already holds entries.
    """
    started = time.perf_counter()
    buf = pathlib.Path(path).read_bytes()
    if buf[:4] != _CACHE_MAGIC:
        raise StorageError(f"not a cache checkpoint: {path}")
    payload = pickle.loads(buf[4:])
    if payload.get("version") != FORMAT_VERSION:
        raise StorageError(f"unsupported checkpoint version: {payload.get('version')}")
    if len(cache):
        raise StorageError("load_cache needs an empty cache")
    restored = cache.restore_rows(payload["rows"])
    _observe("checkpoint_load_ms", "cache", started)
    return restored
