"""Named tokenizers: the Z39.50 question and positional output."""

from hypothesis import given, strategies as st

from repro.text.tokenize import (
    SimpleTokenizer,
    UnicodeTokenizer,
    WhitespaceTokenizer,
)


class TestZ3950Question:
    """The paper: is a query on "Z39.50" one term or two?  It depends
    on the tokenizer — which is why STARTS names tokenizers."""

    def test_simple_tokenizer_splits_on_punctuation(self):
        assert SimpleTokenizer().words("Z39.50") == ["z39", "50"]

    def test_whitespace_tokenizer_keeps_interior_punctuation(self):
        assert WhitespaceTokenizer().words("Z39.50") == ["z39.50"]

    def test_unicode_tokenizer_splits_like_word_chars(self):
        assert UnicodeTokenizer().words("Z39.50") == ["z39", "50"]


class TestSimpleTokenizer:
    def test_positions_and_spans(self):
        tokens = SimpleTokenizer().tokenize("alpha beta gamma")
        assert [t.text for t in tokens] == ["alpha", "beta", "gamma"]
        assert [t.position for t in tokens] == [0, 1, 2]
        assert tokens[1].start == 6 and tokens[1].end == 10

    def test_lowercases(self):
        assert SimpleTokenizer().words("Hello WORLD") == ["hello", "world"]

    def test_empty_text(self):
        assert SimpleTokenizer().tokenize("") == []


class TestWhitespaceTokenizer:
    def test_strips_trailing_sentence_punctuation(self):
        assert WhitespaceTokenizer().words("systems.") == ["systems"]
        assert WhitespaceTokenizer().words('"quoted"') == ["quoted"]

    def test_positions_renumbered_after_drops(self):
        tokens = WhitespaceTokenizer().tokenize("a ... b")
        assert [t.text for t in tokens] == ["a", "b"]
        assert [t.position for t in tokens] == [0, 1]


class TestUnicodeTokenizer:
    def test_accented_words_preserved(self):
        assert UnicodeTokenizer().words("algoritmo análisis") == [
            "algoritmo",
            "análisis",
        ]

    def test_nfkc_normalization(self):
        # The ﬁ ligature normalizes to "fi".
        assert UnicodeTokenizer().words("ﬁle") == ["file"]


@given(st.text(max_size=200))
def test_positions_strictly_increasing(text):
    for tokenizer in (SimpleTokenizer(), WhitespaceTokenizer(), UnicodeTokenizer()):
        tokens = tokenizer.tokenize(text)
        positions = [t.position for t in tokens]
        assert positions == sorted(set(positions))


@given(st.text(alphabet="abc XYZ.,", max_size=100))
def test_spans_cover_token_text(text):
    for token in SimpleTokenizer().tokenize(text):
        assert text[token.start : token.end].lower() == token.text
