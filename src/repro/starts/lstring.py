"""l-strings: the multilingual building blocks of STARTS queries.

Section 4.1.1: "an l-string is either a string (e.g. ``"Ullman"``), or a
string qualified with its associated language and, optionally, with its
associated country.  For example, ``[en-US "behavior"]`` is an l-string,
meaning that the string 'behavior' represents a word in American
English."  Strings are Unicode encoded as UTF-8, whose key property —
called out in the paper — is that plain English text is byte-identical
to its ASCII form, making English/ASCII the invisible default.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.text.langtags import DEFAULT_LANGUAGE, LanguageTag

__all__ = ["LString"]


@dataclass(frozen=True, slots=True)
class LString:
    """A query string with an optional explicit language qualification.

    Attributes:
        text: the Unicode string itself.
        language: the RFC-1766 tag, or None when the string relies on
            the protocol default (English).
    """

    text: str
    language: LanguageTag | None = None

    @property
    def effective_language(self) -> LanguageTag:
        """The language to interpret the string in (default: English)."""
        return self.language if self.language is not None else DEFAULT_LANGUAGE

    def serialize(self) -> str:
        """Render in query-language syntax.

        Unqualified: ``"text"``.  Qualified: ``[en-US "text"]``.
        Embedded double quotes are escaped with a backslash.
        """
        quoted = '"' + self.text.replace("\\", "\\\\").replace('"', '\\"') + '"'
        if self.language is None:
            return quoted
        return f"[{self.language} {quoted}]"

    def __str__(self) -> str:
        return self.serialize()
