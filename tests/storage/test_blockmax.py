"""The block-max column: codec, handles, and v1 backward compatibility.

Version 2 adds ``blockmax.bin`` — per term, per 128-document block, the
metadata block-skipping needs — while leaving ``postings.bin`` and every
other file byte-identical.  These tests pin the codec round-trip, the
:class:`TermHandle` access path, and the promise that version-1 segment
directories (no column) still open and answer correctly.
"""

import json
import random
from array import array

import pytest
from hypothesis import given, strategies as st

from repro.engine import fields as F
from repro.engine.documents import Document
from repro.engine.evaluation import PRUNED, TERM_AT_A_TIME
from repro.engine.query import ListQuery, TermQuery
from repro.engine.search import SearchEngine
from repro.storage.format import (
    POSTINGS_BLOCK_SIZE,
    StorageError,
    count_posting_list,
    decode_posting_list,
    decode_varint,
    encode_posting_list,
    scan_posting_block,
)
from repro.storage.manifest import MANIFEST_NAME, Manifest, read_manifest
from repro.storage.segment import SegmentReader, SegmentWriter


def make_postings(n_docs: int, seed: int = 0) -> tuple[array, array, array]:
    """(doc ids, tfs, positions) columns of ``n_docs`` random postings."""
    rng = random.Random(seed)
    doc_ids, tfs, positions = array("q"), array("I"), array("I")
    doc_id = 0
    for _ in range(n_docs):
        doc_id += rng.randint(1, 5)
        run = sorted(rng.randint(0, 50) for _ in range(rng.randint(1, 4)))
        doc_ids.append(doc_id)
        tfs.append(len(run))
        positions.extend(run)
    return doc_ids, tfs, positions


class TestCodec:
    @pytest.mark.parametrize("n_docs", [0, 1, 127, 128, 129, 400])
    def test_blocks_are_a_pure_overlay(self, n_docs):
        postings = make_postings(n_docs)
        plain = bytearray()
        encode_posting_list(plain, *postings)
        with_blocks = bytearray()
        blocks: list[tuple[int, int, int]] = []
        encode_posting_list(with_blocks, *postings, blocks)
        assert bytes(plain) == bytes(with_blocks)  # v1-compatible bytes
        assert sum(count for _, _, count in blocks) == n_docs
        expected_blocks = (n_docs + POSTINGS_BLOCK_SIZE - 1) // POSTINGS_BLOCK_SIZE
        assert len(blocks) == expected_blocks
        if blocks:
            assert blocks[-1][0] == postings[0][-1]

    def test_scan_posting_block_matches_full_decode(self):
        postings = make_postings(400, seed=3)
        blob = bytearray()
        blocks: list[tuple[int, int, int]] = []
        encode_posting_list(blob, *postings, blocks)
        decoded = decode_posting_list(blob, 0)
        assert decoded == postings
        _, first_data = decode_varint(blob, 0)
        previous_doc = 0
        seen: list[tuple[int, int]] = []
        for number, (last_doc, start, count) in enumerate(blocks):
            doc_ids, tfs = scan_posting_block(blob, start, count, previous_doc)
            assert doc_ids[-1] == last_doc
            if number == 0:
                assert start == first_data
            seen.extend(zip(doc_ids, tfs))
            previous_doc = last_doc
        assert seen == list(zip(postings[0], postings[1]))


#: Position lists the inline skip must step over byte-exactly: empty
#: ones (tf 0), single-byte deltas, and deltas past 16 383 (three-byte
#: varints and up).
_position_lists = st.lists(
    st.one_of(st.integers(0, 127), st.integers(16_384, 5_000_000)), max_size=5
).map(lambda positions: tuple(sorted(positions)))


@given(
    rows=st.lists(st.tuples(st.integers(1, 300_000), _position_lists), max_size=300),
    dead=st.sets(st.integers(0, 299)),
)
def test_position_skipping_matches_full_decode(rows, dead):
    doc_ids, tfs, positions = array("q"), array("I"), array("I")
    doc_id = 0
    for gap, run in rows:
        doc_id += gap
        doc_ids.append(doc_id)
        tfs.append(len(run))
        positions.extend(run)
    tombstoned = {doc_ids[slot] for slot in dead if slot < len(doc_ids)}
    blob = bytearray(b"\xff")  # a list rarely starts at offset 0
    blocks: list[tuple[int, int, int]] = []
    encode_posting_list(blob, doc_ids, tfs, positions, blocks)
    for live in (None, lambda doc_id: doc_id not in tombstoned):
        expected_ids, expected_tfs, _ = decode_posting_list(blob, 1, live)
        assert count_posting_list(blob, 1, live) == len(expected_ids)
        seen: list[tuple[int, int]] = []
        previous_doc = 0
        for last_doc, start, count in blocks:
            scanned_ids, scanned_tfs = scan_posting_block(
                blob, 1 + start, count, previous_doc, live
            )
            assert scanned_ids.typecode == "q" and scanned_tfs.typecode == "I"
            seen.extend(zip(scanned_ids, scanned_tfs))
            previous_doc = last_doc
        assert seen == list(zip(expected_ids, expected_tfs))


def write_segment(directory, postings_by_term, base_length=10):
    """One single-field segment whose doc lengths are ``base_length + id``."""
    doc_ids = sorted({d for columns in postings_by_term.values() for d in columns[0]})
    documents = [
        (doc_id, Document(f"http://seg/{doc_id}", {F.BODY_OF_TEXT: "x"}), base_length + doc_id)
        for doc_id in doc_ids
    ]
    writer = SegmentWriter(directory / "seg-000000", "seg-000000")
    return writer.write(documents, {F.BODY_OF_TEXT: postings_by_term}, [])


def covering_span(handle, ceiling, doc_id):
    """``(bound, tf)`` from the one span of ``handle.spans`` that answers
    for ``doc_id``; None past the last block (the term accessor's gap
    span answers there)."""
    for last_id, bound, columns in handle.spans(ceiling):
        if last_id >= doc_id:
            return bound, dict(zip(*columns())).get(doc_id, 0)
    return None


class TestTermHandle:
    def test_handle_metadata_and_probes(self, tmp_path):
        postings = make_postings(300, seed=5)
        doc_ids, tfs, _ = postings
        write_segment(tmp_path, {"alpha": postings})
        reader = SegmentReader(tmp_path / "seg-000000")
        try:
            handle = reader.term_handle(F.BODY_OF_TEXT, "alpha")
            assert handle is not None and handle.blocks is not None
            assert len(handle.blocks) == (300 + POSTINGS_BLOCK_SIZE - 1) // POSTINGS_BLOCK_SIZE
            assert handle.document_count() == 300
            assert handle.max_term_frequency() == max(tfs)
            # Doc lengths are base + id, so the term-wide min length is
            # the first posting's.
            assert handle.min_doc_length() == 10 + doc_ids[0]
            ceiling = reader.doc_ceiling
            # One span per block, ascending, the last ending on the last
            # posting.
            spans = list(handle.spans(ceiling))
            last_ids = [last_id for last_id, _, _ in spans]
            assert last_ids == handle.blocks.last_ids == sorted(set(last_ids))
            assert spans[-1][0] == doc_ids[-1]
            by_id = dict(zip(doc_ids, tfs))
            probe_ids = list(doc_ids[::17]) + [doc_ids[0] - 1]
            for doc_id in probe_ids:
                assert covering_span(handle, ceiling, doc_id)[1] == by_id.get(doc_id, 0)
            # Past the last posting no block answers.
            assert covering_span(handle, ceiling, doc_ids[-1] + 100) is None
            covered, _ = covering_span(handle, ceiling, doc_ids[0])
            assert covered is not None and covered[0] >= tfs[0]
            assert reader.term_handle(F.BODY_OF_TEXT, "missing") is None
        finally:
            reader.close()

    def test_block_bounds_dominate_their_blocks(self, tmp_path):
        postings = make_postings(300, seed=6)
        write_segment(tmp_path, {"alpha": postings})
        reader = SegmentReader(tmp_path / "seg-000000")
        try:
            handle = reader.term_handle(F.BODY_OF_TEXT, "alpha")
            for doc_id, tf in zip(postings[0], postings[1]):
                (max_tf, min_len), found = covering_span(handle, reader.doc_ceiling, doc_id)
                assert found == tf
                assert max_tf >= tf
                assert min_len <= 10 + doc_id
        finally:
            reader.close()


def downgrade_to_v1(store_dir):
    """Rewrite a committed store as a version-1 directory (no column)."""
    manifest = read_manifest(store_dir)
    assert manifest is not None and manifest.segments
    for segment in manifest.segments:
        segment_dir = store_dir / segment.name
        (segment_dir / "blockmax.bin").unlink()
        header_path = segment_dir / "segment.json"
        header = json.loads(header_path.read_text(encoding="utf-8"))
        header["format_version"] = 1
        header["files"].pop("blockmax.bin", None)
        header_path.write_text(json.dumps(header, indent=1), encoding="utf-8")
    payload = manifest.to_json()
    payload["format_version"] = 1
    (store_dir / MANIFEST_NAME).write_text(
        json.dumps(payload, indent=1), encoding="utf-8"
    )


class TestBackwardCompatibility:
    def _build(self, store_dir, n_docs=220):
        rng = random.Random(9)
        vocab = ["alpha", "beta", "gamma", "delta"]
        engine = SearchEngine(storage="segments", storage_dir=store_dir)
        for index in range(n_docs):
            body = " ".join(rng.choices(vocab, k=rng.randint(3, 20)))
            engine.add(Document(f"http://x/{index}", {F.BODY_OF_TEXT: body}))
        engine.flush()
        return engine

    def test_v1_directory_still_opens_and_answers(self, tmp_path):
        store_dir = tmp_path / "store"
        engine = self._build(store_dir)
        query = ListQuery(
            (TermQuery(F.BODY_OF_TEXT, "alpha"), TermQuery(F.BODY_OF_TEXT, "gamma"))
        )
        expected = engine.search(ranking_query=query, top_k=5)
        engine.close()

        downgrade_to_v1(store_dir)
        warmed = SearchEngine(
            storage="segments", storage_dir=store_dir, evaluation=PRUNED
        )
        try:
            # The v1 directory opens, the handle degrades gracefully
            # (no block column), and both evaluation modes still give
            # the exact same answer.
            reader = warmed.segment_store.readers[0]
            assert reader.format_version == 1
            handle = reader.term_handle(F.BODY_OF_TEXT, "alpha")
            assert handle is not None and handle.blocks is None
            assert handle.min_doc_length() is None
            # One unbounded span over the whole segment.
            spans = list(handle.spans(reader.doc_ceiling))
            assert [(last_id, bound) for last_id, bound, _ in spans] == [
                (reader.doc_ceiling - 1, None)
            ]
            pruned = warmed.search(ranking_query=query, top_k=5)
            # The pruned path went through the memoized term state,
            # which degrades with its handles (no bound on any span,
            # not even the gaps; no length bound) and answers the same
            # warm as cold.
            state = warmed.index.pruned_postings(F.BODY_OF_TEXT, "alpha")
            assert state is warmed.index.pruned_postings(F.BODY_OF_TEXT, "alpha")
            assert all(bound is None for _, bound, _ in state.spans())
            assert state.min_len is None
            assert warmed.search(ranking_query=query, top_k=5) == pruned
            warmed.evaluation = TERM_AT_A_TIME
            exhaustive = warmed.search(ranking_query=query, top_k=5)
            assert pruned == exhaustive == expected
        finally:
            warmed.close()

    def test_unknown_versions_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            Manifest.from_json({"format_version": 99})
        store_dir = tmp_path / "store"
        engine = self._build(store_dir, n_docs=40)
        engine.close()
        manifest = read_manifest(store_dir)
        segment_dir = store_dir / manifest.segments[0].name
        header_path = segment_dir / "segment.json"
        header = json.loads(header_path.read_text(encoding="utf-8"))
        header["format_version"] = 99
        header_path.write_text(json.dumps(header, indent=1), encoding="utf-8")
        with pytest.raises(StorageError):
            SegmentReader(segment_dir)
