"""Thesaurus groups and expansion."""

from repro.text.thesaurus import DEFAULT_THESAURUS, Thesaurus


def test_expansion_includes_self():
    assert "database" in DEFAULT_THESAURUS.expand("database")


def test_expansion_is_symmetric():
    assert "databank" in DEFAULT_THESAURUS.expand("database")
    assert "database" in DEFAULT_THESAURUS.expand("databank")


def test_unknown_word_expands_to_itself():
    assert DEFAULT_THESAURUS.expand("xylophone") == frozenset({"xylophone"})


def test_case_insensitive_lookup():
    assert DEFAULT_THESAURUS.expand("Database") == DEFAULT_THESAURUS.expand("database")


def test_overlapping_groups_merge():
    thesaurus = Thesaurus([("a", "b"), ("b", "c")])
    assert thesaurus.expand("a") == frozenset({"a", "b", "c"})


def test_contains():
    assert "search" in DEFAULT_THESAURUS
    assert "xylophone" not in DEFAULT_THESAURUS


def test_group_count():
    thesaurus = Thesaurus([("a", "b"), ("c", "d")])
    assert len(thesaurus) == 2
