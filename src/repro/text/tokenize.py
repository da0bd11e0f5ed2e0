"""Named tokenizers.

STARTS abandoned earlier designs (exporting separator characters or
token regular expressions) in favour of simply *naming* tokenizers: a
source's ``TokenizerIDList`` metadata attribute maps languages to
tokenizer identifiers such as ``(Acme-1 en-US) (Acme-2 es)``.  A
metasearcher learns how a named tokenizer behaves once — by probing any
source that uses it and inspecting the actual query the source reports —
rather than per source.

This module provides the tokenizer abstraction and three concrete
families with genuinely different behaviour (so that the paper's
"Z39.50" → is it one token or two? question has different answers at
different sources), each carrying the ``tokenizer_id`` it is named by.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

__all__ = [
    "Token",
    "Tokenizer",
    "SimpleTokenizer",
    "WhitespaceTokenizer",
    "UnicodeTokenizer",
]


@dataclass(frozen=True, slots=True)
class Token:
    """A token with its position (word offset) and character span."""

    text: str
    position: int
    start: int
    end: int


class Tokenizer:
    """Base class: subclasses define how raw text becomes tokens.

    Every tokenizer has a stable ``tokenizer_id`` suitable for the
    ``TokenizerIDList`` metadata attribute.
    """

    tokenizer_id = "base"

    def tokenize(self, text: str) -> list[Token]:
        """Split ``text`` into tokens.  Subclasses must override."""
        raise NotImplementedError

    def words(self, text: str) -> list[str]:
        """Convenience: just the token texts, in order."""
        return [token.text for token in self.tokenize(text)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.tokenizer_id!r})"


class _RegexTokenizer(Tokenizer):
    """Shared machinery for tokenizers defined by a token pattern."""

    _pattern: re.Pattern[str]
    lowercase = True

    def tokenize(self, text: str) -> list[Token]:
        tokens: list[Token] = []
        for position, match in enumerate(self._pattern.finditer(text)):
            word = match.group(0)
            if self.lowercase:
                word = word.lower()
            tokens.append(Token(word, position, match.start(), match.end()))
        return tokens


class SimpleTokenizer(_RegexTokenizer):
    """Alphanumeric runs only; punctuation always separates.

    Under this tokenizer "Z39.50" becomes the two tokens "z39" and "50" —
    the behaviour the paper warns metasearchers about.
    """

    tokenizer_id = "Acme-1"
    _pattern = re.compile(r"[A-Za-z0-9]+")


class WhitespaceTokenizer(_RegexTokenizer):
    """Split on whitespace only; interior punctuation is preserved.

    Under this tokenizer "Z39.50" stays a single token "z39.50".
    Trailing sentence punctuation is stripped so "systems." matches
    "systems".
    """

    tokenizer_id = "Acme-2"
    _pattern = re.compile(r"\S+")

    def tokenize(self, text: str) -> list[Token]:
        tokens = []
        for token in super().tokenize(text):
            word = token.text.strip(".,;:!?\"'()[]{}")
            if word:
                tokens.append(Token(word, token.position, token.start, token.end))
        # Re-number positions after dropping empty tokens.
        return [
            Token(token.text, position, token.start, token.end)
            for position, token in enumerate(tokens)
        ]


class UnicodeTokenizer(_RegexTokenizer):
    """Unicode-aware word tokenizer with NFKC normalization.

    Letters and digits in any script form tokens; accents are preserved
    (so Spanish "algoritmo"/"algorítmo" remain distinct tokens and the
    per-language stemmer decides how to fold them).  This is the
    tokenizer the multilingual vendor sources use.
    """

    tokenizer_id = "Uni-1"
    _pattern = re.compile(r"\w+", re.UNICODE)

    def tokenize(self, text: str) -> list[Token]:
        return super().tokenize(unicodedata.normalize("NFKC", text))
