"""l-strings: defaults, qualification, serialization."""

import pytest

from repro.starts import parse_expression
from repro.starts.errors import QuerySyntaxError
from repro.starts.lstring import LString
from repro.text.langtags import LanguageTag


def parse_lstring(text):
    """The l-string of a one-term expression, through the one parser."""
    return parse_expression(text).lstring


class TestDefaults:
    def test_unqualified_defaults_to_english(self):
        """The paper: English/ASCII are invisible defaults."""
        ls = LString("databases")
        assert ls.language is None
        assert ls.effective_language == LanguageTag("en")

    def test_qualified_keeps_language(self):
        ls = LString("behavior", LanguageTag("en", ("US",)))
        assert str(ls.effective_language) == "en-US"


class TestSerialization:
    def test_plain(self):
        assert LString("Ullman").serialize() == '"Ullman"'

    def test_qualified(self):
        """The paper's example: [en-US "behavior"]."""
        ls = LString("behavior", LanguageTag("en", ("US",)))
        assert ls.serialize() == '[en-US "behavior"]'

    def test_embedded_quotes_escaped(self):
        ls = LString('say "hi"')
        assert ls.serialize() == '"say \\"hi\\""'
        assert parse_lstring(ls.serialize()) == ls


class TestParsing:
    def test_quoted(self):
        assert parse_lstring('"Ullman"') == LString("Ullman")

    def test_qualified(self):
        ls = parse_lstring('[en-US "behavior"]')
        assert ls.text == "behavior"
        assert str(ls.language) == "en-US"

    def test_round_trip(self):
        for ls in (LString("x"), LString("ñ", LanguageTag("es"))):
            assert parse_lstring(ls.serialize()) == ls

    @pytest.mark.parametrize(
        "bad", ['[en "x"', "[en]", '"unterminated', 'stray"quote']
    )
    def test_malformed(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_lstring(bad)
