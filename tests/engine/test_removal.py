"""Document removal and replacement (compacting rebuild)."""

import pytest

from repro.engine import fields as F
from repro.engine.documents import Document
from repro.engine.query import ListQuery, TermQuery
from repro.engine.search import SearchEngine


def doc(linkage, body, title="t"):
    return Document(linkage, {F.TITLE: title, F.BODY_OF_TEXT: body})


@pytest.fixture
def engine():
    e = SearchEngine()
    e.add(doc("http://x/a", "databases and systems"))
    e.add(doc("http://x/b", "databases everywhere"))
    e.add(doc("http://x/c", "networks only"))
    return e


def t(text):
    return TermQuery(F.BODY_OF_TEXT, text)


def df(engine, text):
    return engine.index.pruned_postings(F.BODY_OF_TEXT, text).df


class TestRemove:
    def test_removed_document_unfindable(self, engine):
        assert engine.remove("http://x/b")
        linkages = {
            engine.store[hit.doc_id].linkage
            for hit in engine.search(filter_query=t("databases"))
        }
        assert linkages == {"http://x/a"}

    def test_document_count_shrinks(self, engine):
        engine.remove("http://x/b")
        assert engine.document_count == 2

    def test_statistics_exact_after_removal(self, engine):
        engine.remove("http://x/b")
        assert df(engine, "databases") == 1
        summary_df = 0
        for field, _, words in engine.index.summary_sections():
            if field == F.BODY_OF_TEXT and "databases" in words:
                summary_df += words["databases"].document_frequency
        assert summary_df == 1

    def test_missing_linkage_returns_false(self, engine):
        assert not engine.remove("http://nope")
        assert engine.document_count == 3

    def test_remove_equals_fresh_build(self, engine):
        engine.remove("http://x/b")
        fresh = SearchEngine()
        fresh.add(doc("http://x/a", "databases and systems"))
        fresh.add(doc("http://x/c", "networks only"))
        query = ListQuery((t("databases"), t("networks")))
        assert engine.search(ranking_query=query) == fresh.search(ranking_query=query)


class TestReplace:
    def test_replace_updates_content(self, engine):
        engine.replace(doc("http://x/c", "databases now"))
        assert engine.document_count == 3
        assert df(engine, "databases") == 3
        assert df(engine, "networks") == 0

    def test_replace_of_absent_document_adds(self, engine):
        engine.replace(doc("http://x/d", "brand new"))
        assert engine.document_count == 4

    def test_modifier_lookup_after_replace(self, engine):
        engine.replace(doc("http://x/c", "database singular"))
        stemmed = TermQuery(F.BODY_OF_TEXT, "databases", modifiers=frozenset({"stem"}))
        matched = engine.evaluate_filter(stemmed)
        assert len(matched) == 3  # both plural docs + the new singular
