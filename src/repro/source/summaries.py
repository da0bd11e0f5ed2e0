"""Automatic content-summary generation (§4.3.2).

A source's content summary is generated straight from its inverted
index's surface-form statistics: the word list per (field, language),
each word with its total postings count and document frequency, plus
the total number of documents.  Per the paper's recommendation the
exported words are unstemmed and carry field information; case
sensitivity and stop-word inclusion follow the source's analyzer
configuration and are declared in the summary header flags.

The index's statistics go to the wire in one pass (:func:`_summary_soif`,
what the ``cont_sum.txt`` endpoint serves), and
:func:`build_content_summary` is the decode of that object.
"""

from __future__ import annotations

from operator import itemgetter

from repro.engine.search import SearchEngine
from repro.starts.metadata import SContentSummary, write_content_summary
from repro.starts.soif import SoifObject

__all__ = ["build_content_summary"]


def _summary_soif(
    engine: SearchEngine,
    max_words_per_section: int | None = None,
    include_postings: bool = True,
    include_document_frequencies: bool = True,
) -> SoifObject:
    """The @SContentSummary object, written from the index's rows."""
    if not (include_postings or include_document_frequencies):
        raise ValueError("a summary must include postings or document frequencies")
    analyzer = engine.analyzer
    header = SContentSummary(
        num_docs=engine.document_count,
        stemming=analyzer.stem,
        stop_words=analyzer.index_stop_words,
        case_sensitive=analyzer.case_sensitive,
        fields=True,
        has_postings=include_postings,
        has_document_frequencies=include_document_frequencies,
    )
    # Most frequent first, then alphabetical for determinism.  A word's
    # postings are never fewer than its documents, so the larger exported
    # statistic is the postings count whenever it is exported.  The words
    # of a section are distinct: sorting the rows orders them by word, and
    # the second sort is stable.
    count = itemgetter(1 if include_postings else 2)
    sections = []
    for field_name, language, words in engine.index.summary_sections():
        rows = sorted(
            [(word, stats.postings, stats.document_frequency) for word, stats in words.items()]
        )
        rows.sort(key=count, reverse=True)
        sections.append((field_name, language, rows[:max_words_per_section]))
    return write_content_summary(header, sections)


def build_content_summary(
    engine: SearchEngine,
    max_words_per_section: int | None = None,
    include_postings: bool = True,
    include_document_frequencies: bool = True,
) -> SContentSummary:
    """Extract a source's content summary from its engine: the decode of
    what its ``cont_sum.txt`` endpoint serves.

    Args:
        engine: the source's engine (index already built).
        max_words_per_section: truncate each (field, language) section
            to its most frequent words — the knob the E4/A1 experiments
            sweep to trade summary size against selection quality.
            None exports everything.
        include_postings / include_document_frequencies: the paper
            requires "at least one of" the two statistics; both default
            to exported.

    Raises:
        ValueError: if both statistics are disabled.
    """
    return SContentSummary.from_soif(
        _summary_soif(
            engine, max_words_per_section, include_postings, include_document_frequencies
        )
    )
