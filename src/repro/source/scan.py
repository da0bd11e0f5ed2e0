"""A term-browse (Scan) service, after Z39.50's Scan (§5 of the paper).

The paper credits Z39.50's Scan service with letting "clients access
the sources' contents incrementally".  STARTS-1.0 itself only exports
whole content summaries; this optional extension adds the incremental
counterpart: a client names a field and a start term and receives the
next N vocabulary entries with their statistics — useful for query
autocompletion and for probing how a source tokenized its collection
without downloading the full summary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.starts.errors import SoifSyntaxError
from repro.starts.query import _number
from repro.starts.soif import SoifObject, parse_soif

__all__ = ["ScanRequest", "ScanEntry", "ScanResponse"]


@dataclass(frozen=True)
class ScanRequest:
    """A scan request: field + start term + how many entries."""

    field: str
    start_term: str
    count: int = 10

    def to_soif(self) -> SoifObject:
        obj = SoifObject("SScanRequest")
        obj.add("Field", self.field)
        obj.add("StartTerm", self.start_term)
        obj.add("Count", str(self.count))
        return obj

    @classmethod
    def from_soif(cls, obj: SoifObject) -> "ScanRequest":
        if obj.template != "SScanRequest":
            raise SoifSyntaxError(f"expected @SScanRequest, got @{obj.template}")
        return cls(
            field=obj.get("Field", "any") or "any",
            start_term=obj.get("StartTerm", "") or "",
            count=_number(int, "Count", obj.get("Count"), 10),
        )


@dataclass(frozen=True)
class ScanEntry:
    """One vocabulary entry: the surface word and its statistics."""

    word: str
    postings: int
    document_frequency: int


@dataclass(frozen=True)
class ScanResponse:
    """An ordered slice of the source's vocabulary."""

    field: str
    entries: tuple[ScanEntry, ...]

    def to_soif(self) -> SoifObject:
        obj = SoifObject("SScanResponse")
        obj.add("Field", self.field)
        obj.add(
            "Entries",
            "\n".join(
                f'"{entry.word}" {entry.postings} {entry.document_frequency}'
                for entry in self.entries
            ),
        )
        return obj

    @classmethod
    def from_soif(cls, obj: SoifObject) -> "ScanResponse":
        if obj.template != "SScanResponse":
            raise SoifSyntaxError(f"expected @SScanResponse, got @{obj.template}")
        entries = []
        for line in (obj.get("Entries", "") or "").splitlines():
            line = line.strip()
            if not line:
                continue
            closing = line.find('"', 1)
            numbers = line[closing + 1 :].split()
            if not line.startswith('"') or closing < 0 or len(numbers) != 2:
                raise SoifSyntaxError(f"bad Entries line: {line!r}")
            postings, df = (_number(int, "Entries", text, 0) for text in numbers)
            entries.append(ScanEntry(line[1:closing], postings, df))
        return cls(field=obj.get("Field", "any") or "any", entries=tuple(entries))

    @classmethod
    def parse(cls, data: bytes | str) -> "ScanResponse":
        return cls.from_soif(parse_soif(data))
