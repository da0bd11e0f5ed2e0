"""Text-analysis substrate for the STARTS reproduction.

This package supplies everything a 1990s-era text search engine needs and
that the STARTS protocol talks about by name:

* RFC-1766 language tags (``langtags``) — the ``en-US`` qualifiers that
  adorn l-strings and content summaries.
* Named tokenizers (``tokenize``) — STARTS sources advertise their
  tokenizers through the ``TokenizerIDList`` metadata attribute, so
  tokenizers here are registered under stable identifiers.
* The Porter stemmer (``porter``) and a light Spanish stemmer
  (``spanish``) — the ``stem`` modifier of the Basic-1 attribute set.
* Stop-word lists (``stopwords``) — the ``StopWordList`` /
  ``TurnOffStopWords`` metadata attributes and the ``DropStopWords``
  query property.
* Soundex (``soundex``) — the ``phonetic`` modifier.
* A small thesaurus (``thesaurus``) — the ``thesaurus`` modifier.
"""

from repro.text.analysis import AnalyzedToken, Analyzer
from repro.text.langtags import LanguageTag, parse_language_tag
from repro.text.porter import PorterStemmer, porter_stem
from repro.text.soundex import soundex
from repro.text.spanish import spanish_stem
from repro.text.stopwords import StopWordList, ENGLISH_STOP_WORDS, SPANISH_STOP_WORDS
from repro.text.thesaurus import Thesaurus, DEFAULT_THESAURUS
from repro.text.tokenize import (
    Tokenizer,
    SimpleTokenizer,
    WhitespaceTokenizer,
    UnicodeTokenizer,
)

__all__ = [
    "AnalyzedToken",
    "Analyzer",
    "LanguageTag",
    "parse_language_tag",
    "PorterStemmer",
    "porter_stem",
    "soundex",
    "spanish_stem",
    "StopWordList",
    "ENGLISH_STOP_WORDS",
    "SPANISH_STOP_WORDS",
    "Thesaurus",
    "DEFAULT_THESAURUS",
    "Tokenizer",
    "SimpleTokenizer",
    "WhitespaceTokenizer",
    "UnicodeTokenizer",
]
