"""Stop-word lists and the "The Who" scenario."""

from repro.text.langtags import parse_language_tag
from repro.text.stopwords import ENGLISH_STOP_WORDS, SPANISH_STOP_WORDS, StopWordList


def test_membership_is_case_insensitive():
    assert "The" in ENGLISH_STOP_WORDS
    assert "THE" in ENGLISH_STOP_WORDS


def test_the_who_scenario():
    """Both words of "The Who" are English stop words — the paper's
    motivating case for TurnOffStopWords."""
    assert ENGLISH_STOP_WORDS.is_stop_word("the")
    assert ENGLISH_STOP_WORDS.is_stop_word("who")


def test_content_words_are_not_stopped():
    for word in ("database", "distributed", "ullman"):
        assert word not in ENGLISH_STOP_WORDS


def test_spanish_list_is_distinct():
    assert "el" in SPANISH_STOP_WORDS
    assert "el" not in ENGLISH_STOP_WORDS
    assert SPANISH_STOP_WORDS.language == parse_language_tag("es")


def test_custom_list_construction():
    custom = StopWordList(["Foo", "BAR"], language="en", name="custom")
    assert "foo" in custom
    assert "bar" in custom
    assert len(custom) == 2
    assert list(custom) == ["bar", "foo"]


def test_iteration_is_sorted():
    words = list(ENGLISH_STOP_WORDS)
    assert words == sorted(words)


def test_repr_mentions_size():
    assert str(len(ENGLISH_STOP_WORDS)) in repr(ENGLISH_STOP_WORDS)
