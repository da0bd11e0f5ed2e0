"""Analysis pipelines: tokenizer + stop words + stemmer, per language.

A search engine's observable "query model" in STARTS terms is exactly an
analysis pipeline: which tokenizer it names in ``TokenizerIDList``,
which stop words it eliminates (``StopWordList``), whether that can be
turned off (``TurnOffStopWords``), and how it stems.  The engines in
``repro.engine`` and the vendor simulations in ``repro.vendors`` are
parameterized by an :class:`Analyzer` so each vendor's heterogeneous
behaviour comes from configuration, not special-cased code.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.text.langtags import LanguageTag, parse_language_tag
from repro.text.porter import porter_stem
from repro.text.spanish import spanish_stem
from repro.text.stopwords import ENGLISH_STOP_WORDS, SPANISH_STOP_WORDS, StopWordList
from repro.text.tokenize import Tokenizer, UnicodeTokenizer

__all__ = ["AnalyzedToken", "Analyzer"]

#: A stemming function: word -> stem.
Stemmer = Callable[[str], str]

_STEMMERS: dict[str, Stemmer] = {"en": porter_stem, "es": spanish_stem}


@dataclass(frozen=True, slots=True)
class AnalyzedToken:
    """A post-analysis token: surface form, index form, and position."""

    surface: str
    term: str
    position: int


@dataclass
class Analyzer:
    """A configurable tokenize → stop → stem pipeline.

    Args:
        tokenizer: the named tokenizer (its id is what the source exports).
        stop_words: per-language stop lists; keyed by primary language.
        stem: whether stemming is applied at *index* time.  STARTS
            engines differ here: some index stems, some index surface
            forms and stem only when the query carries the ``stem``
            modifier.
        case_sensitive: if False (the common case), terms are lowercased.
        can_disable_stop_words: the ``TurnOffStopWords`` capability.
        index_stop_words: whether stop words are kept in the *index*.
            A source that lets clients turn off query-side stop-word
            elimination must index stop words, or "The Who" could never
            match; sources that cannot turn it off usually do not.
    """

    tokenizer: Tokenizer = field(default_factory=UnicodeTokenizer)
    stop_words: dict[str, StopWordList] = field(
        default_factory=lambda: {"en": ENGLISH_STOP_WORDS, "es": SPANISH_STOP_WORDS}
    )
    stem: bool = False
    case_sensitive: bool = False
    can_disable_stop_words: bool = True
    index_stop_words: bool = False

    def signature(self) -> dict[str, object]:
        """The pipeline settings that define index compatibility.

        Two engines can serve the same saved index exactly when their
        signatures match — the segment store's manifest records this
        and refuses to open across a mismatch.
        """
        return {
            "tokenizer": self.tokenizer.tokenizer_id,
            "stem": self.stem,
            "case_sensitive": self.case_sensitive,
            "index_stop_words": self.index_stop_words,
        }

    def stemmer_for(self, language: LanguageTag) -> Stemmer:
        """The stemming function for ``language`` (identity if unknown)."""
        return _STEMMERS.get(language.language, lambda word: word)

    def stop_list_for(self, language: LanguageTag) -> StopWordList | None:
        return self.stop_words.get(language.language)

    def normalize(
        self,
        word: str,
        language: LanguageTag | str = "en",
        stem: bool | None = None,
    ) -> str:
        """Normalize one word the way this pipeline indexes it.

        ``stem`` overrides the pipeline default — this is how the query
        side applies the Basic-1 ``stem`` modifier to a single term even
        when the index stores surface forms.
        """
        if isinstance(language, str):
            language = parse_language_tag(language)
        if not self.case_sensitive:
            word = word.lower()
        use_stem = self.stem if stem is None else stem
        if use_stem:
            word = self.stemmer_for(language)(word)
        return word

    def analyze(
        self,
        text: str,
        language: LanguageTag | str = "en",
        drop_stop_words: bool = True,
    ) -> list[AnalyzedToken]:
        """Run the full pipeline over ``text``.

        Stop words are *removed but positions preserved*, so proximity
        constraints still measure true word distance across removed stop
        words — the behaviour intersection with ``prox`` that real
        engines exhibit.
        """
        if isinstance(language, str):
            language = parse_language_tag(language)
        if not self.can_disable_stop_words:
            drop_stop_words = True
        stop_list = self.stop_list_for(language) if drop_stop_words else None
        stemmer = self.stemmer_for(language) if self.stem else None

        analyzed: list[AnalyzedToken] = []
        for token in self.tokenizer.tokenize(text):
            surface = token.text
            if stop_list is not None and stop_list.is_stop_word(surface):
                continue
            term = surface if self.case_sensitive else surface.lower()
            if stemmer is not None:
                term = stemmer(term)
            analyzed.append(AnalyzedToken(surface, term, token.position))
        return analyzed

    def vocabulary(self, text: str, language: LanguageTag | str = "en") -> set[str]:
        """The set of index terms ``text`` produces."""
        return {token.term for token in self.analyze(text, language)}
