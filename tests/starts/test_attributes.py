"""The Basic-1 attribute tables, transcribed exactly from the paper."""

import pytest

from repro.starts.attributes import (
    BASIC1,
    COMPARISON_MODIFIERS,
    FieldRef,
    ModifierRef,
    canonical_field_name,
)
from repro.starts.errors import QuerySyntaxError


class TestFieldTable:
    """T1 of DESIGN.md: the field table, row by row."""

    # (name, required, new) rows exactly as printed in §4.1.1.
    PAPER_ROWS = [
        ("title", True, False),
        ("author", False, False),
        ("body-of-text", False, False),
        ("document-text", False, True),
        ("date/time-last-modified", True, False),
        ("any", True, False),
        ("linkage", True, False),
        ("linkage-type", False, False),
        ("cross-reference-linkage", False, False),
        ("languages", False, False),
        ("free-form-text", False, True),
    ]

    def test_exactly_eleven_fields(self):
        assert len(BASIC1.fields) == 11

    @pytest.mark.parametrize("name,required,new", PAPER_ROWS)
    def test_row(self, name, required, new):
        spec = BASIC1.field(name)
        assert spec is not None
        assert spec.required is required
        assert spec.new is new

    def test_required_field_list(self):
        assert set(BASIC1.required_fields()) == {
            "title",
            "date/time-last-modified",
            "any",
            "linkage",
        }

    def test_unknown_field_is_none(self):
        assert BASIC1.field("nonexistent") is None


class TestModifierTable:
    """T2 of DESIGN.md: the modifier table, row by row."""

    PAPER_ROWS = [
        ("<", False),
        ("<=", False),
        ("=", False),
        (">=", False),
        (">", False),
        ("!=", False),
        ("phonetic", False),
        ("stem", False),
        ("thesaurus", True),
        ("right-truncation", False),
        ("left-truncation", False),
        ("case-sensitive", True),
    ]

    def test_count(self):
        assert len(BASIC1.modifiers) == 12

    @pytest.mark.parametrize("name,new", PAPER_ROWS)
    def test_row(self, name, new):
        spec = BASIC1.modifier(name)
        assert spec is not None
        assert spec.new is new

    def test_comparison_modifiers_constant(self):
        assert set(COMPARISON_MODIFIERS) == {"<", "<=", "=", ">=", ">", "!="}

    def test_defaults_documented(self):
        assert BASIC1.modifier("stem").default == "no stemming"
        assert BASIC1.modifier("case-sensitive").default == "case insensitive"


class TestCanonicalNames:
    def test_paper_alias(self):
        """The paper's prose writes date-last-modified for the tabled
        Date/time-last-modified field."""
        assert canonical_field_name("date-last-modified") == "date/time-last-modified"

    def test_case_folding(self):
        assert canonical_field_name("Title") == "title"


class TestRefs:
    def test_field_ref_qualified(self):
        ref = FieldRef.parse("[basic-1 author]")
        assert ref == FieldRef("author", "basic-1")
        assert ref.serialize() == "[basic-1 author]"

    def test_field_ref_bare(self):
        assert FieldRef.parse("title") == FieldRef("title")

    def test_modifier_ref_qualified(self):
        ref = ModifierRef.parse("{basic-1 phonetics}")
        assert ref == ModifierRef("phonetics", "basic-1")
        assert ref.serialize() == "{basic-1 phonetics}"

    @pytest.mark.parametrize("bad", ["[basic-1", "[a b c]", "{x", "{a b c}"])
    def test_malformed_refs(self, bad):
        parser = FieldRef.parse if bad.startswith("[") else ModifierRef.parse
        with pytest.raises(QuerySyntaxError):
            parser(bad)
