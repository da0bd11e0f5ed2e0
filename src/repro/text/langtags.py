"""RFC-1766 language tags, as used by STARTS l-strings.

STARTS qualifies strings with their language and, optionally, country:
``[en-US "behavior"]`` means the string "behavior" is American English.
The qualification format follows RFC 1766: a primary language tag (two
letters for ISO-639 codes) followed by optional subtags separated by
hyphens, the first of which is conventionally an ISO-3166 country code.

The paper makes English (``en``) the default language so that plain
ASCII queries need no qualification at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["LanguageTag", "parse_language_tag", "InvalidLanguageTag"]

_TAG_RE = re.compile(r"^[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*$")


class InvalidLanguageTag(ValueError):
    """Raised when a string is not a well-formed RFC-1766 language tag."""


@dataclass(frozen=True, slots=True)
class LanguageTag:
    """An RFC-1766 language tag: a language code plus optional subtags.

    Instances are immutable and hashable so they can key dictionaries
    (e.g. per-language content-summary sections).

    Attributes:
        language: lowercase primary tag, e.g. ``"en"``.
        subtags: tuple of subtags; the first is usually a country code
            and is normalized to uppercase (``"US"``), the rest are kept
            lowercase per RFC-1766 convention.
    """

    language: str
    subtags: tuple[str, ...] = ()

    def matches(self, other: "LanguageTag") -> bool:
        """True if ``self`` covers ``other``.

        A bare language tag covers every country variant of the same
        language: ``en`` matches ``en-US`` and ``en-GB``, but ``en-US``
        only matches ``en-US``.  This is the matching rule sources use
        when deciding whether a query term's language qualifier is
        compatible with a field's language list.
        """
        if self.language != other.language:
            return False
        if not self.subtags:
            return True
        return self.subtags == other.subtags[: len(self.subtags)]

    def __str__(self) -> str:
        return "-".join((self.language,) + self.subtags)


def parse_language_tag(text: str) -> LanguageTag:
    """Parse an RFC-1766 tag such as ``en-US`` into a :class:`LanguageTag`.

    Raises:
        InvalidLanguageTag: if the text is empty or malformed.
    """
    if not text or not _TAG_RE.match(text):
        raise InvalidLanguageTag(f"not an RFC-1766 language tag: {text!r}")
    parts = text.split("-")
    language = parts[0].lower()
    subtags: list[str] = []
    for index, part in enumerate(parts[1:]):
        if index == 0 and len(part) == 2:
            subtags.append(part.upper())
        else:
            subtags.append(part.lower())
    return LanguageTag(language, tuple(subtags))


#: The protocol-wide default: plain strings are English.
DEFAULT_LANGUAGE = LanguageTag("en")

#: American English, the tag used throughout the paper's examples.
EN_US = LanguageTag("en", ("US",))

#: Spanish, the second language in the paper's content-summary example.
SPANISH = LanguageTag("es")
