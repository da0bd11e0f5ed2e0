"""RFC-1766 language tag parsing and matching."""

import pytest
from hypothesis import given, strategies as st

from repro.text.langtags import (
    DEFAULT_LANGUAGE,
    EN_US,
    InvalidLanguageTag,
    LanguageTag,
    parse_language_tag,
)


class TestParsing:
    def test_bare_language(self):
        tag = parse_language_tag("en")
        assert tag.language == "en"
        assert tag.subtags == ()

    def test_language_with_country(self):
        tag = parse_language_tag("en-US")
        assert tag.language == "en"
        assert tag.subtags == ("US",)

    def test_case_is_normalized(self):
        assert parse_language_tag("EN-us") == LanguageTag("en", ("US",))

    def test_multiple_subtags(self):
        tag = parse_language_tag("en-US-boont")
        assert tag.subtags == ("US", "boont")

    @pytest.mark.parametrize("bad", ["", "e!", "en--US", "-en", "en-", "a b"])
    def test_malformed_tags_rejected(self, bad):
        with pytest.raises(InvalidLanguageTag):
            parse_language_tag(bad)

    def test_str_round_trip(self):
        assert str(parse_language_tag("en-US")) == "en-US"
        assert str(parse_language_tag("es")) == "es"


class TestMatching:
    def test_bare_tag_covers_country_variants(self):
        assert parse_language_tag("en").matches(parse_language_tag("en-US"))
        assert parse_language_tag("en").matches(parse_language_tag("en-GB"))

    def test_country_tag_only_matches_itself(self):
        assert parse_language_tag("en-US").matches(parse_language_tag("en-US"))
        assert not parse_language_tag("en-US").matches(parse_language_tag("en-GB"))
        assert not parse_language_tag("en-US").matches(parse_language_tag("en"))

    def test_different_languages_never_match(self):
        assert not parse_language_tag("en").matches(parse_language_tag("es"))

    def test_module_constants(self):
        assert DEFAULT_LANGUAGE.language == "en"
        assert EN_US.subtags == ("US",)


@given(
    st.text(alphabet="abcdefgh", min_size=1, max_size=8),
    st.text(alphabet="ABCDEFGH", min_size=2, max_size=2),
)
def test_round_trip_property(language, country):
    tag = parse_language_tag(f"{language}-{country}")
    assert parse_language_tag(str(tag)) == tag


@given(st.text(alphabet="abcdefgh", min_size=1, max_size=8))
def test_bare_round_trip_property(language):
    tag = parse_language_tag(language)
    assert str(tag) == language.lower()
