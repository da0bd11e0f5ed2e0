"""The content-summary codec as it stood before the one-pass harvest.

``build_content_summary`` (one ``SummaryEntryLine`` per word, sorted by
a ``max`` key) followed by ``SContentSummary.to_soif().dump()``, the
``SContentSummary.from_soif`` reader (``SummaryEntryLine.parse`` per
line) and the ``_word_index`` behind ``word_statistics`` are moved here
verbatim from ``repro/source/summaries.py`` and
``repro/starts/metadata.py``; only the ``self`` receivers became
arguments, the entry line's ``serialize`` / ``parse`` became functions,
and the entry points got an ``oracle_`` prefix.
``tests/starts/test_summary_codec_equivalence.py`` holds the production
writer and reader to these.
"""

from __future__ import annotations

from repro.engine.search import SearchEngine
from repro.starts.errors import SoifSyntaxError
from repro.starts.metadata import SContentSummary, SummaryEntryLine, SummarySection
from repro.starts.query import PROTOCOL_VERSION, _number
from repro.starts.soif import SoifObject

__all__ = [
    "oracle_build_content_summary",
    "oracle_summary_to_soif",
    "oracle_summary_text",
    "oracle_summary_from_soif",
    "oracle_word_statistics",
    "oracle_total_word_mass",
]


def _serialize_entry(entry: SummaryEntryLine) -> str:
    parts = [f'"{entry.word}"']
    if entry.postings >= 0:
        parts.append(str(entry.postings))
    if entry.document_frequency >= 0:
        parts.append(str(entry.document_frequency))
    return " ".join(parts)


def _parse_entry(line: str, has_postings: bool = True, has_df: bool = True) -> SummaryEntryLine:
    line = line.strip()
    if not line.startswith('"'):
        raise SoifSyntaxError(f"summary line must start with a word: {line!r}")
    closing = line.find('"', 1)
    numbers = line[closing + 1 :].split()
    postings, df = -1, -1
    try:  # one line per summary word: the good path stays int()
        if closing < 0 or (has_postings and has_df and len(numbers) != 2):
            raise ValueError
        if has_postings and has_df:
            postings, df = int(numbers[0]), int(numbers[1])
        elif has_postings:
            postings = int(numbers[0])
        elif has_df:
            df = int(numbers[0])
    except (ValueError, IndexError):
        raise SoifSyntaxError(
            f"bad TermDocFreq line (a quoted word, then the declared "
            f"statistics as integers): {line!r}"
        ) from None
    return SummaryEntryLine(line[1:closing], postings, df)


def oracle_build_content_summary(
    engine: SearchEngine,
    max_words_per_section: int | None = None,
    include_postings: bool = True,
    include_document_frequencies: bool = True,
) -> SContentSummary:
    if not (include_postings or include_document_frequencies):
        raise ValueError("a summary must include postings or document frequencies")

    analyzer = engine.analyzer
    sections = []
    for field_name, language, words in engine.index.summary_sections():
        entries = [
            SummaryEntryLine(
                word,
                stats.postings if include_postings else -1,
                stats.document_frequency if include_document_frequencies else -1,
            )
            for word, stats in words.items()
        ]
        # Most frequent first, then alphabetical for determinism.
        entries.sort(key=lambda entry: (-max(entry.postings, entry.document_frequency), entry.word))
        if max_words_per_section is not None:
            entries = entries[:max_words_per_section]
        sections.append(SummarySection(field_name, language, tuple(entries)))

    return SContentSummary(
        num_docs=engine.document_count,
        sections=tuple(sections),
        stemming=analyzer.stem,
        stop_words=analyzer.index_stop_words,
        case_sensitive=analyzer.case_sensitive,
        fields=True,
        has_postings=include_postings,
        has_document_frequencies=include_document_frequencies,
    )


def oracle_summary_to_soif(summary: SContentSummary) -> SoifObject:
    obj = SoifObject("SContentSummary")
    obj.add("Version", summary.version)
    obj.add("Stemming", "T" if summary.stemming else "F")
    obj.add("StopWords", "T" if summary.stop_words else "F")
    obj.add("CaseSensitive", "T" if summary.case_sensitive else "F")
    obj.add("Fields", "T" if summary.fields else "F")
    statistics = []
    if summary.has_postings:
        statistics.append("postings")
    if summary.has_document_frequencies:
        statistics.append("df")
    obj.add("StatisticsIncluded", " ".join(statistics))
    obj.add("NumDocs", str(summary.num_docs))
    for section in summary.sections:
        if summary.fields:
            obj.add("Field", section.field)
        obj.add("Language", section.language)
        obj.add(
            "TermDocFreq",
            "\n".join(_serialize_entry(entry) for entry in section.entries),
        )
    return obj


def oracle_summary_text(
    engine: SearchEngine,
    max_words_per_section: int | None = None,
    include_postings: bool = True,
    include_document_frequencies: bool = True,
) -> str:
    """What the ``cont_sum.txt`` endpoint served: build, then dump."""
    summary = oracle_build_content_summary(
        engine, max_words_per_section, include_postings, include_document_frequencies
    )
    return oracle_summary_to_soif(summary).dump()


def oracle_summary_from_soif(obj: SoifObject) -> SContentSummary:
    if obj.template != "SContentSummary":
        raise SoifSyntaxError(f"expected @SContentSummary, got @{obj.template}")
    has_fields = (obj.get("Fields", "T") or "T").upper() == "T"
    statistics_text = obj.get("StatisticsIncluded")
    if statistics_text is None:
        statistics_text = "postings df"  # legacy blobs: assume both
    statistics = statistics_text.split()
    has_postings = "postings" in statistics
    has_df = "df" in statistics
    if not (has_postings or has_df):
        raise SoifSyntaxError("summary must include postings or df statistics")
    sections: list[SummarySection] = []
    current_field = "any"
    current_language = "en"
    for name, value in obj.pairs():
        lowered = name.lower()
        if lowered == "field":
            current_field = value.strip()
        elif lowered == "language":
            current_language = value.strip()
        elif lowered == "termdocfreq":
            entries = tuple(
                _parse_entry(line, has_postings, has_df)
                for line in value.splitlines()
                if line.strip()
            )
            sections.append(
                SummarySection(current_field, current_language, entries)
            )
    return SContentSummary(
        num_docs=_number(int, "NumDocs", obj.get("NumDocs"), 0),
        sections=tuple(sections),
        stemming=(obj.get("Stemming", "F") or "F").upper() == "T",
        stop_words=(obj.get("StopWords", "F") or "F").upper() == "T",
        case_sensitive=(obj.get("CaseSensitive", "F") or "F").upper() == "T",
        fields=has_fields,
        has_postings=has_postings,
        has_document_frequencies=has_df,
        version=obj.get("Version", PROTOCOL_VERSION) or PROTOCOL_VERSION,
    )


def _word_index(
    summary: SContentSummary,
) -> tuple[
    dict[str, list[SummaryEntryLine]],
    dict[tuple[str, str], list[SummaryEntryLine]],
]:
    by_word: dict[str, list[SummaryEntryLine]] = {}
    by_word_field: dict[tuple[str, str], list[SummaryEntryLine]] = {}
    for section in summary.sections:
        for entry in section.entries:
            key = entry.word if summary.case_sensitive else entry.word.lower()
            by_word.setdefault(key, []).append(entry)
            by_word_field.setdefault((key, section.field), []).append(entry)
    return by_word, by_word_field


def oracle_word_statistics(summary: SContentSummary) -> dict[str, tuple[int, int]]:
    by_word, _ = _word_index(summary)
    return {
        word: (
            sum(max(entry.postings, 0) for entry in entries),
            sum(max(entry.document_frequency, 0) for entry in entries),
        )
        for word, entries in by_word.items()
    }


def oracle_total_word_mass(summary: SContentSummary) -> int:
    return sum(
        max(entry.postings, 0)
        for section in summary.sections
        for entry in section.entries
    )
