"""STARTS-1.0 conformance checking for sources.

A deployment tool: probe a source (directly or over the wire) and
report which protocol obligations it meets.  Checks are derived from
the specification's MUSTs:

* **metadata** — all required MBasic-1 attributes present and
  well-formed; advertised linkages resolve (when probing over a
  network).
* **required fields** — the four required Basic-1 fields are declared.
* **operators** — if filter expressions are supported, all four
  Basic-1 operators execute (§4.1.1: "If a source supports filter
  expressions, it must support all these operators").
* **actual-query reporting** — the source reports the query it
  processed, and ignores (rather than rejects) unsupported parts.
* **answer specification** — MaxNumberDocuments and the default
  score-descending order are honoured; linkage is returned with every
  document.
* **statelessness** — repeating a query yields identical results.
* **summary consistency** — NumDocs is consistent with observed
  results; summary statistics are internally sane (df <= NumDocs,
  postings >= df).

The checker never *requires* optional features; it reports them as
informational findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.source.source import StartsSource
from repro.starts.attributes import BASIC1, canonical_field_name
from repro.starts.metadata import MBASIC1_ATTRIBUTES
from repro.starts.parser import parse_expression
from repro.starts.query import SQuery

__all__ = ["Finding", "ConformanceReport", "check_source"]


@dataclass(frozen=True)
class Finding:
    """One check outcome."""

    check: str
    passed: bool
    detail: str = ""

    def row(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        detail = f" — {self.detail}" if self.detail else ""
        return f"[{mark}] {self.check}{detail}"


@dataclass
class ConformanceReport:
    """All findings for one source."""

    source_id: str
    findings: list[Finding] = dataclass_field(default_factory=list)

    def add(self, check: str, passed: bool, detail: str = "") -> None:
        self.findings.append(Finding(check, passed, detail))

    @property
    def passed(self) -> bool:
        return all(finding.passed for finding in self.findings)

    def failures(self) -> list[Finding]:
        return [finding for finding in self.findings if not finding.passed]


_REQUIRED_METADATA = [spec.name for spec in MBASIC1_ATTRIBUTES if spec.required]


def check_source(source: StartsSource) -> ConformanceReport:
    """Run the full conformance battery against ``source``."""
    report = ConformanceReport(source.source_id)
    _check_metadata(source, report)
    _check_required_fields(source, report)
    _check_operators(source, report)
    _check_actual_query_reporting(source, report)
    _check_answer_specification(source, report)
    _check_statelessness(source, report)
    _check_summary_consistency(source, report)
    return report


def _check_metadata(source: StartsSource, report: ConformanceReport) -> None:
    metadata = source.metadata()
    wire = metadata.to_soif()
    wire_names = {name.lower() for name in wire.names()}
    aliases = {
        "linkage": "linkage",
        "contentsummarylinkage": "content-summary-linkage",
    }
    for name in _REQUIRED_METADATA:
        wire_name = aliases.get(name.lower(), name).lower()
        present = wire_name in wire_names
        report.add(f"metadata: {name} exported", present)
    low, high = metadata.score_range
    report.add(
        "metadata: ScoreRange ordered",
        low <= high,
        f"range is {metadata.score_range}",
    )


def _check_required_fields(source: StartsSource, report: ConformanceReport) -> None:
    metadata = source.metadata()
    for name in BASIC1.required_fields():
        report.add(
            f"fields: required {name!r} declared",
            metadata.supports_field(canonical_field_name(name)),
        )


def _check_operators(source: StartsSource, report: ConformanceReport) -> None:
    if not source.capabilities.supports_filter():
        report.add("operators: (skipped — no filter support)", True)
        return
    probes = {
        "and": '((any "alpha") and (any "beta"))',
        "or": '((any "alpha") or (any "beta"))',
        "and-not": '((any "alpha") and-not (any "beta"))',
        "prox": '((any "alpha") prox[1,T] (any "beta"))',
    }
    for operator, text in probes.items():
        query = SQuery(filter_expression=parse_expression(text))
        try:
            source.search(query)
            report.add(f"operators: {operator} accepted", True)
        except Exception as error:  # conformance: must not reject
            report.add(f"operators: {operator} accepted", False, repr(error))


def _check_actual_query_reporting(
    source: StartsSource, report: ConformanceReport
) -> None:
    query = SQuery(
        filter_expression=parse_expression('(title "alpha")'),
        ranking_expression=parse_expression('list((body-of-text "alpha"))'),
    )
    results = source.search(query)
    reported = (
        results.actual_filter_expression is not None
        or results.actual_ranking_expression is not None
    )
    report.add(
        "results: actual query reported",
        reported,
        "a source must reveal what it processed",
    )

    # An unsupported part must be ignored, not rejected.
    exotic = SQuery(
        filter_expression=parse_expression(
            '((title "alpha") and (no-such-field "beta"))'
        )
    )
    try:
        exotic_results = source.search(exotic)
        survived = exotic_results.actual_filter_expression
        detail = f"actual: {survived.serialize() if survived else '(empty)'}"
        report.add("results: unsupported parts ignored silently", True, detail)
    except Exception as error:
        report.add("results: unsupported parts ignored silently", False, repr(error))


def _probe_ranking_query(source: StartsSource) -> SQuery:
    """A ranking query guaranteed to match something, built by scanning
    the source's own vocabulary."""
    scan = source.scan("body-of-text", "", count=3)
    words = [entry.word for entry in scan.entries] or ["alpha"]
    terms = " ".join(f'(body-of-text "{word}")' for word in words)
    return SQuery(ranking_expression=parse_expression(f"list({terms})"))


def _check_answer_specification(
    source: StartsSource, report: ConformanceReport
) -> None:
    if not source.capabilities.supports_ranking() or source.document_count == 0:
        report.add("answer: (skipped — no ranking or empty source)", True)
        return
    from dataclasses import replace

    query = _probe_ranking_query(source)
    results = source.search(query)
    if not results.documents:
        report.add("answer: probe query matched", False, "vocabulary probe empty")
        return

    report.add(
        "answer: linkage on every document",
        all(document.linkage for document in results.documents),
    )
    scores = [document.raw_score for document in results.documents]
    report.add("answer: score-descending default order", scores == sorted(scores, reverse=True))

    capped = source.search(replace(query, max_number_documents=1))
    report.add("answer: MaxNumberDocuments honoured", len(capped.documents) <= 1)

    low, high = source.metadata().score_range
    in_range = all(low <= score <= high for score in scores)
    report.add(
        "answer: scores within declared ScoreRange",
        in_range,
        f"range {source.metadata().score_range}",
    )


def _check_statelessness(source: StartsSource, report: ConformanceReport) -> None:
    query = _probe_ranking_query(source)
    if not source.capabilities.supports_ranking():
        query = SQuery(filter_expression=parse_expression('(any "alpha")'))
    first = source.search(query)
    second = source.search(query)
    report.add("sessionless: repeated query identical", first == second)


def _check_summary_consistency(
    source: StartsSource, report: ConformanceReport
) -> None:
    summary = source.content_summary()
    report.add(
        "summary: NumDocs matches source size",
        summary.num_docs == source.document_count,
        f"NumDocs={summary.num_docs}, source={source.document_count}",
    )
    sane = True
    for section in summary.sections:
        for entry in section.entries:
            if entry.document_frequency > summary.num_docs:
                sane = False
            if 0 <= entry.postings < entry.document_frequency:
                sane = False
    report.add("summary: statistics internally consistent", sane)
