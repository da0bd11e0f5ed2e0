"""KWIC snippet generation."""

from repro.engine.snippets import make_snippet
from repro.text.analysis import Analyzer

BODY = (
    "This survey opens with history and background material before the "
    "main discussion of distributed databases and distributed query "
    "processing, then closes with open problems in replication."
)


class TestHighlighting:
    def test_terms_highlighted(self):
        snippet = make_snippet(BODY, ["databases"], window=8)
        assert "**databases**" in snippet.text

    def test_custom_highlight_marker(self):
        snippet = make_snippet(BODY, ["databases"], window=8, highlight="__")
        assert "__databases__" in snippet.text

    def test_counts_reported(self):
        snippet = make_snippet(BODY, ["distributed", "databases"], window=12)
        assert snippet.distinct_terms == 2
        assert snippet.total_hits >= 3


class TestWindowSelection:
    def test_window_covers_term_cluster(self):
        snippet = make_snippet(BODY, ["distributed", "databases"], window=10)
        assert "distributed" in snippet.text
        assert "databases" in snippet.text
        # The history/background head is not the chosen window.
        assert "history" not in snippet.text

    def test_ellipses_mark_cuts(self):
        snippet = make_snippet(BODY, ["replication"], window=5)
        assert snippet.text.startswith("... ")

    def test_head_fallback_without_hits(self):
        snippet = make_snippet(BODY, ["xylophone"], window=5)
        assert snippet.distinct_terms == 0
        assert snippet.text.startswith("This survey")
        assert snippet.text.endswith("...")

    def test_short_document_no_trailing_ellipsis(self):
        snippet = make_snippet("just databases here", ["databases"], window=10)
        assert snippet.text == "just **databases** here"


class TestNormalizedMatching:
    def test_stemmed_matching_highlights_variants(self):
        analyzer = Analyzer(stem=True)
        snippet = make_snippet(
            "one database among many databases", ["databases"], window=10,
            analyzer=analyzer,
        )
        assert "**database**" in snippet.text
        assert "**databases**" in snippet.text
        assert snippet.total_hits == 2

    def test_case_insensitive_matching(self):
        snippet = make_snippet("Databases rule", ["databases"], window=5)
        assert "**Databases**" in snippet.text


class TestDegenerateInputs:
    def test_empty_body(self):
        snippet = make_snippet("", ["x"], window=5)
        assert snippet.text == ""

    def test_empty_terms(self):
        snippet = make_snippet(BODY, [], window=5)
        assert snippet.distinct_terms == 0
