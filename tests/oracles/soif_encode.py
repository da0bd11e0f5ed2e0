"""The SOIF answer encode as it stood before the single-pass rewrite.

``SoifObject.dump`` (every value UTF-8-encoded once just to count its
bytes), ``SQRDocument.to_soif`` (a ``SoifObject`` and a pairs list per
document, every term re-serialized per hit) and the join-of-dumps
``SQResults.to_soif_stream`` are moved here verbatim from
``repro/starts/soif.py`` and ``repro/starts/results.py``; only the
``self`` receivers became arguments, ``TermStats.serialize`` and the
``repr`` float formatter are inlined, and the entry points got an
``oracle_`` prefix.  ``tests/starts/test_soif_encode_equivalence.py``
holds the production encode to these, byte for byte.
"""

from __future__ import annotations

from repro.starts.results import SQRDocument, SQResults, TermStats
from repro.starts.soif import SoifObject

__all__ = ["oracle_dump", "oracle_document_to_soif", "oracle_results_to_soif_stream"]


def oracle_dump(obj: SoifObject) -> str:
    """Render to SOIF text with correct byte counts."""
    lines = [f"@{obj.template}{{"]
    for name, value in obj.pairs():
        nbytes = len(value.encode("utf-8"))
        lines.append(f"{name}{{{nbytes}}}: {value}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _term_stats_line(stats: TermStats) -> str:
    return (
        f"{stats.term.serialize()} {stats.term_frequency} "
        f"{repr(float(stats.term_weight))} {stats.document_frequency}"
    )


def oracle_document_to_soif(document: SQRDocument) -> SoifObject:
    obj = SoifObject("SQRDocument")
    obj.add("Version", document.version)
    obj.add("RawScore", repr(float(document.raw_score)))
    obj.add("Sources", " ".join(document.sources))
    obj.add("linkage", document.linkage)
    for name, value in document.fields.items():
        obj.add(name, value)
    if document.term_stats:
        obj.add(
            "TermStats",
            "\n".join(_term_stats_line(stats) for stats in document.term_stats),
        )
    obj.add("DocSize", str(document.doc_size))
    obj.add("DocCount", str(document.doc_count))
    return obj


def oracle_results_to_soif_stream(results: SQResults) -> str:
    """The wire form: @SQResults then the @SQRDocument series."""
    header = SoifObject("SQResults")
    header.add("Version", results.version)
    header.add("Sources", " ".join(results.sources))
    if results.actual_filter_expression is not None:
        header.add(
            "ActualFilterExpression", results.actual_filter_expression.serialize()
        )
    if results.actual_ranking_expression is not None:
        header.add(
            "ActualRankingExpression", results.actual_ranking_expression.serialize()
        )
    header.add("NumDocSOIFs", str(results.num_doc_soifs))
    parts = [oracle_dump(header)]
    parts.extend(
        oracle_dump(oracle_document_to_soif(document)) for document in results.documents
    )
    return "\n".join(parts)
