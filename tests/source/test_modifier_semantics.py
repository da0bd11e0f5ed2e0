"""Modifier semantics through the full source path."""

from repro.engine.ranking import CosineTfIdf
from repro.engine.search import SearchEngine
from repro.source import StartsSource
from repro.starts import SQuery, parse_expression
from repro.text.analysis import Analyzer
from repro.text.tokenize import SimpleTokenizer


def search(source, text):
    query = SQuery(filter_expression=parse_expression(text))
    return {doc.linkage for doc in source.search(query).documents}


class TestThesaurusThroughSource:
    def test_synonym_match(self, source1):
        """'datastore' is a DEFAULT_THESAURUS synonym of 'database' but
        the canned documents only say 'databases'; the stem+thesaurus
        combination is needed — test the thesaurus alone on a word the
        corpus actually contains a synonym for."""
        from repro.engine import fields as F
        from repro.engine.documents import Document

        source = StartsSource(
            "Thes",
            [
                Document("http://x/0", {F.BODY_OF_TEXT: "the datastore holds rows"}),
                Document("http://x/1", {F.BODY_OF_TEXT: "nothing relevant"}),
            ],
        )
        assert search(source, '(body-of-text thesaurus "database")') == {"http://x/0"}

    def test_without_thesaurus_no_match(self, source1):
        from repro.engine import fields as F
        from repro.engine.documents import Document

        source = StartsSource(
            "Thes",
            [Document("http://x/0", {F.BODY_OF_TEXT: "the datastore holds rows"})],
        )
        assert search(source, '(body-of-text "database")') == set()


class TestCaseSensitiveModifier:
    def test_noop_on_case_insensitive_engine(self, source1):
        """Best-effort semantics: a case-insensitive engine accepts the
        modifier and matches case-insensitively — the source 'may
        freely interpret' supported attributes."""
        with_mod = search(source1, '(author case-sensitive "ullman")')
        without = search(source1, '(author "ullman")')
        assert with_mod == without

    def test_case_sensitive_engine_distinguishes(self):
        from repro.engine import fields as F
        from repro.engine.documents import Document

        class CaseTokenizer(SimpleTokenizer):
            tokenizer_id = "Case-2"
            lowercase = False

        engine = SearchEngine(
            analyzer=Analyzer(tokenizer=CaseTokenizer(), case_sensitive=True),
            ranking=CosineTfIdf(),
        )
        source = StartsSource(
            "CaseFull",
            [
                Document("http://x/0", {F.BODY_OF_TEXT: "Polish sausage"}),
                Document("http://x/1", {F.BODY_OF_TEXT: "polish the silver"}),
            ],
            engine=engine,
        )
        assert search(source, '(body-of-text "Polish")') == {"http://x/0"}
        assert search(source, '(body-of-text "polish")') == {"http://x/1"}


class TestComparisonCornerCases:
    def test_equal_boundary_dates(self, source1):
        hits_ge = search(source1, '(date-last-modified >= "1995-06-12")')
        hits_gt = search(source1, '(date-last-modified > "1995-06-12")')
        # The Ullman document is dated exactly 1995-06-12.
        assert "http://www-db.stanford.edu/~ullman/pub/dood.ps" in hits_ge
        assert "http://www-db.stanford.edu/~ullman/pub/dood.ps" not in hits_gt

    def test_not_equal(self, source1):
        hits = search(source1, '(date-last-modified != "1995-06-12")')
        assert "http://www-db.stanford.edu/~ullman/pub/dood.ps" not in hits
        assert len(hits) == 2
