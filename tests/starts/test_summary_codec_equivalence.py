"""The one-pass summary writer and reader against the codec they replaced.

``tests/oracles/summary_codec.py`` is the previous codec, verbatim: a
``SummaryEntryLine`` per word sorted by a ``max`` key, a ``SoifObject``
built and dumped; a reader that parsed each line on its own; statistics
summed over a word index.  The production writer must produce the same
bytes from every vendor's index, and the reader must decode them — and
any summary object's bytes — to what the oracle decodes, statistics and
``SummaryIndex`` columns included.

Two fixes are the sanctioned differences, and :func:`changed_by_the_fixes`
names the inputs they decide:

* a word holding ``"`` (what a whitespace tokenizer indexes from
  ``rock"n``) runs to the line's *last* quote, where the oracle stopped
  at the first and rejected the line;
* a count is ASCII decimal digits, where the oracle took whatever
  ``int()`` takes: a sign, ``_`` separators, non-ASCII digits.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.engine import fields as F
from repro.engine.documents import Document
from repro.metasearch.summary_index import SummaryIndex
from repro.source.summaries import _summary_soif
from repro.starts.errors import SoifSyntaxError
from repro.starts.metadata import SContentSummary, SummaryEntryLine, SummarySection
from repro.starts.soif import SoifObject, parse_soif
from repro.vendors import build_vendor_source, vendor_names
from tests.oracles.summary_codec import (
    oracle_build_content_summary,
    oracle_summary_from_soif,
    oracle_summary_text,
    oracle_summary_to_soif,
    oracle_total_word_mass,
    oracle_word_statistics,
)

REJECTED = "rejected"
#: Both statistics, postings only, document frequencies only.
STATISTICS = [(True, True), (True, False), (False, True)]


def decoded(decode, obj: SoifObject):
    try:
        return decode(obj)
    except SoifSyntaxError:
        return REJECTED


def _int_takes(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _loose_count(token: str) -> bool:
    """A count ``int()`` takes that is not ASCII decimal digits."""
    return _int_takes(token) and not (token.isascii() and token.isdigit())


def _lines(obj: SoifObject):
    """Every ``TermDocFreq`` line of ``obj``, stripped."""
    for name, value in obj:
        if name.lower() == "termdocfreq":
            yield from (line.strip() for line in value.splitlines())


def changed_by_the_fixes(obj: SoifObject) -> bool:
    """Whether ``obj`` is an input the last-quote rule or the count
    grammar may decide differently from the oracle."""
    if any(_loose_count(value) for name, value in obj if name.lower() == "numdocs"):
        return True
    for line in _lines(obj):
        first = line.find('"', 1)
        if first != line.rfind('"'):
            return True  # the word holds a quote
        if any(map(_loose_count, line[first + 1 :].split())):
            return True
    return False


def reads_a_loose_count(obj: SoifObject) -> bool:
    """Whether a count the reader reads — ``NumDocs``, and each declared
    statistic after a line's last quote — is one ``int()`` takes but is
    not ASCII decimal digits: the count grammar rejects ``obj``."""
    if _loose_count(obj.get("NumDocs") or "0"):
        return True
    statistics = obj.get("StatisticsIncluded")
    both = statistics is None or {"postings", "df"} <= set(statistics.split())
    for line in _lines(obj):
        counts = line[line.rfind('"') + 1 :].split()[: 2 if both else 1]
        if line.startswith('"') and any(map(_loose_count, counts)):
            return True
    return False


def assert_same_statistics(summary: SContentSummary, reference: SContentSummary):
    """``word_statistics``, ``total_word_mass`` and the ``SummaryIndex``
    columns of ``summary`` are the oracle's for ``reference``."""
    statistics = oracle_word_statistics(reference)
    assert summary.word_statistics() == statistics
    assert summary.total_word_mass() == oracle_total_word_mass(reference)
    production = SummaryIndex.from_summaries({"s": summary})
    # The oracle's statistics stand in the reference's memo.
    object.__setattr__(
        reference,
        "_tally_cache",
        (reference.sections, statistics, oracle_total_word_mass(reference)),
    )
    expected = SummaryIndex.from_summaries({"s": reference})
    assert production.term_count == expected.term_count
    for word in statistics:
        assert production.term_columns(word) == expected.term_columns(word)
    assert production.mean_clamped_word_mass() == expected.mean_clamped_word_mass()


def assert_decodes_like_the_oracle(obj: SoifObject) -> None:
    """Accepted or rejected as the oracle does, and equal when accepted —
    but on the inputs the fixes decide.  Whatever is accepted has each
    declared statistic non-negative and each other one -1."""
    got = decoded(SContentSummary.from_soif, obj)
    expected = decoded(oracle_summary_from_soif, obj)
    if reads_a_loose_count(obj):
        assert got == REJECTED
    if got != expected:
        assert changed_by_the_fixes(obj)
    elif got != REJECTED:
        assert_same_statistics(got, expected)
    if got != REJECTED:
        for section in got.sections:
            for _, postings, df in section.entries:
                assert (postings >= 0) is got.has_postings and postings >= -1
                assert (df >= 0) is got.has_document_frequencies and df >= -1


# -- bytes from every vendor's index ------------------------------------------

#: Words a tokenizer keeps whole or splits: mixed case (one key for both
#: under a case-insensitive summary), quotes, accents, digits.
words = st.sampled_from(
    ["rock\"n", "Rock", "rock", "'roll'", "a\"b\"c", "naïve", "NAÏVE", "z39.50", "the", "ünï"]
)
texts = st.lists(words, max_size=8).map(" ".join)
documents = st.lists(
    st.builds(
        lambda i, title, body, author, language: Document(
            f"http://d.example.org/{i}",
            {F.TITLE: title, F.BODY_OF_TEXT: body, F.AUTHOR: author},
            language,
        ),
        st.integers(0, 10**6),
        texts,
        texts,
        texts,
        st.sampled_from(["en", "es", "en-US"]),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda document: document.linkage,
)


@given(documents)
def test_every_vendor_writes_the_oracle_bytes_and_reads_them_back(docs):
    for vendor in vendor_names():
        engine = build_vendor_source(vendor, "S", docs).engine
        for max_words in (None, 1, 3):
            for postings, df in STATISTICS:
                text = _summary_soif(engine, max_words, postings, df).dump()
                assert text == oracle_summary_text(engine, max_words, postings, df)
                built = oracle_build_content_summary(engine, max_words, postings, df)
                obj = parse_soif(text)
                summary = SContentSummary.from_soif(obj)
                assert summary == built
                assert_same_statistics(summary, built)
                expected = decoded(oracle_summary_from_soif, obj)
                assert expected == built or changed_by_the_fixes(obj)


# -- any summary object -------------------------------------------------------

#: Few words, so they repeat across sections; case variants collide
#: only in case-insensitive summaries.
entry_words = st.sampled_from(["a", "A", "b", "x\"y", "é", "", "w w"])
counts = st.integers(0, 50)


@st.composite
def summaries(draw):
    postings, df = draw(st.sampled_from(STATISTICS))
    sections = draw(
        st.lists(
            st.builds(
                SummarySection,
                st.sampled_from(["title", "author", "body-of-text"]),
                st.sampled_from(["en", "es"]),
                st.lists(
                    st.builds(
                        lambda word, p, d: SummaryEntryLine(
                            word, p if postings else -1, d if df else -1
                        ),
                        entry_words,
                        counts,
                        counts,
                    ),
                    max_size=5,
                ).map(tuple),
            ),
            max_size=4,
        ).map(tuple)
    )
    return SContentSummary(
        num_docs=draw(counts),
        sections=sections,
        stemming=draw(st.booleans()),
        stop_words=draw(st.booleans()),
        case_sensitive=draw(st.booleans()),
        fields=True,
        has_postings=postings,
        has_document_frequencies=df,
    )


@given(summaries())
def test_any_summary_writes_the_oracle_bytes_and_decodes_to_itself(summary):
    text = summary.to_soif().dump()
    assert text == oracle_summary_to_soif(summary).dump()
    obj = parse_soif(text)
    decoded_summary = SContentSummary.from_soif(obj)
    assert decoded_summary == summary
    assert_same_statistics(decoded_summary, summary)
    assert_decodes_like_the_oracle(obj)


@given(summaries())
def test_statistics_of_a_constructed_summary_match_the_oracle(summary):
    """No decode seeded the memo: the statistics are tallied on first use."""
    assert_same_statistics(summary, summary)


# -- malformed input ----------------------------------------------------------

#: Quotes, signs, separators, full-width and superscript digits, and
#: every character ``str.splitlines`` ends a line at.
fragments = st.sampled_from(
    ['"', '"w"', " ", "\t", "3", "12", "-", "+", "_", "\uff11", "\xb2", "x", "\n", "\r",
     "\x85", "\u2028", "\x1c", "\xa0", "\x0b"]
)
blanks = st.sampled_from(["", " ", "\t", "  ", "\xa0", "\x1f"])
count_texts = st.sampled_from(["0", "7", "12", "007", "-3", "+3", "1_0", "\uff11", "\xb2", "x", ""])
#: Lines shaped like rows, each part sometimes wrong, and plain junk.
lines = st.one_of(
    st.builds(
        lambda lead, word, close, first, gap, second, trail: (
            f'{lead}"{word}{close}{first}{gap}{second}{trail}'
        ),
        blanks,
        st.lists(st.sampled_from(["a", "B", '"', " ", "\xe9", "\r", "\x85"]), max_size=4).map("".join),
        st.sampled_from(['" ', '"', " ", '"\t']),
        count_texts,
        blanks,
        count_texts,
        st.one_of(blanks, st.sampled_from([' "x"', " 9", " 4 5"])),
    ),
    st.lists(fragments, max_size=8).map("".join),
)
values = st.tuples(
    st.lists(lines, max_size=4), st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\n\n"])
).map(lambda parts: parts[1].join(parts[0]))
statistics_included = st.sampled_from(["postings df", "postings", "df", "", "bogus"])


@st.composite
def malformed_summaries(draw):
    pairs = [("StatisticsIncluded", draw(statistics_included))]
    if draw(st.booleans()):
        pairs.append(("NumDocs", draw(values)))
    for _ in range(draw(st.integers(0, 3))):
        pairs.append(("Field", draw(st.sampled_from(["title", " author "]))))
        pairs.append(("TermDocFreq", draw(values)))
    return SoifObject("SContentSummary", draw(st.permutations(pairs)))


@given(malformed_summaries())
def test_malformed_input_is_rejected_as_the_oracle_rejects_it(obj):
    assert_decodes_like_the_oracle(obj)


#: Counts ``int()`` takes that are not ASCII decimal digits.
LOOSE_COUNTS = ["-3", "+3", "1_0", "\uff13", "\u0663"]


@pytest.mark.parametrize("count", LOOSE_COUNTS)
@pytest.mark.parametrize(
    "attribute, value, statistics",
    [
        ("TermDocFreq", '"w" {} 2', "postings df"),
        ("TermDocFreq", '"w" 3 {}', "postings df"),
        ("TermDocFreq", '"w" {}', "postings"),
        ("TermDocFreq", '"w" {}', "df"),
        ("NumDocs", "{}", "postings df"),
    ],
)
def test_the_count_grammar_rejects_what_the_oracle_took(count, attribute, value, statistics):
    obj = SoifObject(
        "SContentSummary",
        [("StatisticsIncluded", statistics), (attribute, value.format(count))],
    )
    assert decoded(oracle_summary_from_soif, obj) != REJECTED
    assert changed_by_the_fixes(obj) and reads_a_loose_count(obj)
    with pytest.raises(SoifSyntaxError, match=attribute):
        SContentSummary.from_soif(obj)


@pytest.mark.parametrize(
    "line, statistics, word",
    [
        ('"rock"n" 3 2', "postings df", 'rock"n'),
        ('"a"b"c" 3', "postings", 'a"b"c'),
        ('"a" 3 "x" 4', "df", 'a" 3 "x'),
    ],
)
def test_the_last_quote_rule_reads_words_holding_quotes(line, statistics, word):
    obj = SoifObject(
        "SContentSummary", [("StatisticsIncluded", statistics), ("TermDocFreq", line)]
    )
    assert changed_by_the_fixes(obj)
    [entry] = SContentSummary.from_soif(obj).sections[0].entries
    assert entry.word == word
