"""The single-pass answer encode against the encoder it replaced.

``tests/oracles/soif_encode.py`` is the previous encode, verbatim: a
``SoifObject`` per document, every value UTF-8-encoded to be counted,
every term serialized per hit.  The production ``to_soif_stream`` and
``SoifObject.dump`` must produce the same bytes — and what they produce
must decode back to what was encoded.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, strategies as st

from repro.starts.ast import STerm
from repro.starts.attributes import FieldRef
from repro.starts.lstring import LString
from repro.starts.results import SQRDocument, SQResults, TermStats
from tests.oracles.soif_encode import oracle_dump, oracle_results_to_soif_stream
from tests.starts.test_soif_equivalence import (
    counts,
    expressions,
    field_names,
    finite,
    soif_objects,
    term_nodes,
    tokens,
    values,
)

#: Floats, and integer-valued numbers of either type (``1`` travels as ``1.0``).
numbers = st.one_of(finite, st.integers(-3, 3), st.integers(-3, 3).map(float))


@st.composite
def results(draw):
    """Responses as a source or a resource builds them: few distinct
    terms, each either one object shared across documents or an equal
    copy; any number of ``Sources``; often no fields or no TermStats."""
    pool = draw(st.lists(term_nodes, min_size=1, max_size=3))
    terms = st.sampled_from(pool).flatmap(
        lambda term: st.sampled_from([term, dataclasses.replace(term)])
    )
    term_stats = st.lists(st.builds(TermStats, terms, counts, numbers, counts), max_size=4)
    documents = st.builds(
        SQRDocument,
        linkage=values,
        raw_score=numbers,
        sources=st.lists(tokens, max_size=3).map(tuple),
        fields=st.dictionaries(field_names, values, max_size=4),
        term_stats=term_stats.map(tuple),
        doc_size=counts,
        doc_count=counts,
        version=tokens,
    )
    return draw(
        st.builds(
            SQResults,
            sources=st.lists(tokens, max_size=3).map(tuple),
            actual_filter_expression=expressions,
            actual_ranking_expression=expressions,
            documents=st.lists(documents, max_size=5).map(tuple),
            version=tokens,
        )
    )


@given(results())
def test_result_stream_bytes_equal_the_oracle_and_decode_back(original):
    stream = original.to_soif_stream()
    assert stream.encode("utf-8") == oracle_results_to_soif_stream(original).encode("utf-8")
    assert SQResults.from_soif_stream(stream.encode("utf-8")) == original


@given(st.lists(soif_objects, max_size=4))
def test_dump_equals_the_oracle(objects):
    for obj in objects:
        assert obj.dump() == oracle_dump(obj)


def test_terms_are_serialized_once_per_response(monkeypatch):
    """One shared object is rendered once; an equal copy once more; the
    memo dies with the call."""
    shared = STerm(LString("databases"), FieldRef("body-of-text"))
    copy = dataclasses.replace(shared)
    response = SQResults(
        sources=("S",),
        documents=tuple(
            SQRDocument(
                linkage=f"http://x/{index}",
                raw_score=0.5,
                sources=("S",),
                term_stats=(TermStats(shared, 1, 0.5, 2), TermStats(term, 2, 1, 2)),
            )
            for index, term in enumerate([shared, shared, copy])
        ),
    )
    calls = []
    real = STerm.serialize
    monkeypatch.setattr(
        STerm, "serialize", lambda self: calls.append(id(self)) or real(self)
    )
    first = response.to_soif_stream()
    assert calls == [id(shared), id(copy)]
    assert response.to_soif_stream() == first
    assert calls == [id(shared), id(copy)] * 2
    monkeypatch.undo()
    assert first == oracle_results_to_soif_stream(response)
