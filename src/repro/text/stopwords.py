"""Stop-word lists, per-language, exportable as STARTS metadata.

Each STARTS source must export its ``StopWordList`` and whether stop-word
elimination can be turned off (``TurnOffStopWords``).  Queries in turn
carry a ``DropStopWords`` property.  This module provides the mutable
:class:`StopWordList` container sources use, plus the default English
and Spanish lists the simulated vendors are configured with.

The paper's motivating example — a user searching for the rock group
"The Who" — is exactly the case where a metasearcher needs to know that
a source's stop-word processing can be disabled; the English list below
deliberately contains both "the" and "who" so tests can exercise it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.text.langtags import LanguageTag, parse_language_tag

__all__ = ["StopWordList", "ENGLISH_STOP_WORDS", "SPANISH_STOP_WORDS"]

_ENGLISH = """
a about above after again against all am an and any are as at be because
been before being below between both but by can did do does doing down
during each few for from further had has have having he her here hers
him his how i if in into is it its itself just me more most my myself no
nor not now of off on once only or other our ours out over own same she
should so some such than that the their theirs them then there these
they this those through to too under until up very was we were what when
where which while who whom why will with you your yours
""".split()

_SPANISH = """
a al algo algunas algunos ante antes como con contra cual cuando de del
desde donde durante e el ella ellas ellos en entre era erais eran eras
eres es esa esas ese eso esos esta estas este esto estos fue fueron fui
ha han hasta hay la las le les lo los mas me mi mis mucho muchos muy nada
ni no nos nosotros o os otra otros para pero poco por porque que quien
se ser si sin sobre son su sus también te tiene todo todos tu tus un una
uno unos vosotros y ya
""".split()


class StopWordList:
    """A named, per-language stop-word list.

    Sources export this verbatim through the ``StopWordList`` metadata
    attribute; the analysis pipeline consults it during indexing and,
    when the query says ``DropStopWords: T``, during query processing.
    """

    def __init__(
        self,
        words: Iterable[str] = (),
        language: LanguageTag | str = "en",
        name: str = "default",
    ) -> None:
        if isinstance(language, str):
            language = parse_language_tag(language)
        self.language = language
        self.name = name
        self._words = frozenset(word.lower() for word in words)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._words

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._words))

    def __len__(self) -> int:
        return len(self._words)

    def __repr__(self) -> str:
        return f"StopWordList({self.name!r}, {self.language}, {len(self)} words)"

    def is_stop_word(self, word: str) -> bool:
        """Alias for ``word in self`` that reads well at call sites."""
        return word in self


#: Default English list (contains "the" and "who" — see module docstring).
ENGLISH_STOP_WORDS = StopWordList(_ENGLISH, language="en", name="english")

#: Default Spanish list.
SPANISH_STOP_WORDS = StopWordList(_SPANISH, language="es", name="spanish")
