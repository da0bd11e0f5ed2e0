"""Codec round-trips for the segment file format."""

from array import array

import pytest
from hypothesis import given, strategies as st

from repro.storage.format import (
    count_posting_list,
    decode_posting_list,
    decode_string,
    decode_varint,
    encode_posting_list,
    encode_string,
    encode_varint,
)


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**31, 2**63])
    def test_round_trip(self, value):
        blob = bytearray()
        encode_varint(blob, value)
        decoded, pos = decode_varint(bytes(blob), 0)
        assert decoded == value
        assert pos == len(blob)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(bytearray(), -1)

    @given(st.lists(st.integers(0, 2**64), max_size=20))
    def test_sequences_round_trip(self, values):
        blob = bytearray()
        for value in values:
            encode_varint(blob, value)
        buf = bytes(blob)
        pos = 0
        decoded = []
        for _ in values:
            value, pos = decode_varint(buf, pos)
            decoded.append(value)
        assert decoded == values
        assert pos == len(buf)

    def test_truncated_raises(self):
        blob = bytearray()
        encode_varint(blob, 300)
        with pytest.raises(IndexError):
            decode_varint(bytes(blob[:-1]), 0)


class TestString:
    @given(st.text(max_size=64))
    def test_round_trip(self, text):
        blob = bytearray()
        encode_string(blob, text)
        decoded, pos = decode_string(bytes(blob), 0)
        assert decoded == text
        assert pos == len(blob)


@st.composite
def posting_lists(draw):
    """(doc ids, tfs, positions) columns: the engine's posting layout."""
    doc_ids = draw(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=12, unique=True)
    )
    doc_ids.sort()
    tfs, positions = array("I"), array("I")
    for _ in doc_ids:
        run = draw(st.lists(st.integers(0, 500), min_size=1, max_size=6, unique=True))
        tfs.append(len(run))
        positions.extend(sorted(run))
    return array("q", doc_ids), tfs, positions


class TestPostingList:
    @given(posting_lists())
    def test_round_trip(self, postings):
        blob = bytearray()
        encode_posting_list(blob, *postings)
        decoded = decode_posting_list(bytes(blob), 0)
        assert decoded == postings

    @given(posting_lists())
    def test_count_matches(self, postings):
        blob = bytearray()
        encode_posting_list(blob, *postings)
        assert count_posting_list(bytes(blob), 0) == len(postings[0])
