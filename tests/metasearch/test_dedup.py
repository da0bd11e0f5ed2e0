"""Cross-source near-duplicate collapsing."""

from repro.metasearch.dedup import collapse_near_duplicates, jaccard, word_shingles
from repro.metasearch.merging import MergedDocument
from repro.starts.results import SQRDocument


def merged(linkage, score, source, title, body=""):
    fields = {"title": title}
    if body:
        fields["body-of-text"] = body
    return MergedDocument(
        linkage,
        score,
        source,
        SQRDocument(linkage=linkage, raw_score=score, sources=(source,), fields=fields),
    )


class TestShingles:
    def test_two_word_shingles(self):
        assert word_shingles("a b c") == {("a", "b"), ("b", "c")}

    def test_short_text(self):
        assert word_shingles("single") == {("single",)}

    def test_empty(self):
        assert word_shingles("") == frozenset()

    def test_case_folded(self):
        assert word_shingles("Alpha Beta") == word_shingles("alpha beta")


class TestJaccard:
    def test_identical(self):
        s = word_shingles("a b c d")
        assert jaccard(s, s) == 1.0

    def test_disjoint(self):
        assert jaccard(word_shingles("a b"), word_shingles("x y")) == 0.0

    def test_empty_is_zero(self):
        assert jaccard(frozenset(), frozenset()) == 0.0


class TestCollapse:
    def test_mirror_collapses(self):
        documents = [
            merged("http://a.org/p.ps", 0.9, "A", "Deductive Database Systems Compared"),
            merged("http://mirror.org/p.ps", 0.5, "B", "Deductive Database Systems Compared"),
        ]
        kept = collapse_near_duplicates(documents)
        assert [m.linkage for m in kept] == ["http://a.org/p.ps"]

    def test_distinct_titles_survive(self):
        documents = [
            merged("http://a/1", 0.9, "A", "Deductive Database Systems"),
            merged("http://b/2", 0.5, "B", "Congestion Control in Packet Networks"),
        ]
        assert len(collapse_near_duplicates(documents)) == 2

    def test_rank_order_preserved(self):
        documents = [
            merged("http://a/1", 0.9, "A", "First Title Entirely Different"),
            merged("http://b/2", 0.7, "B", "Second Title Also Quite Unique"),
            merged("http://c/3", 0.5, "C", "First Title Entirely Different"),
        ]
        kept = collapse_near_duplicates(documents)
        assert [m.linkage for m in kept] == ["http://a/1", "http://b/2"]

    def test_threshold_controls_aggressiveness(self):
        documents = [
            merged("http://a/1", 0.9, "A", "distributed database systems overview"),
            merged("http://b/2", 0.5, "B", "distributed database systems surveyed"),
        ]
        strict = collapse_near_duplicates(documents, threshold=0.95)
        loose = collapse_near_duplicates(documents, threshold=0.4)
        assert len(strict) == 2
        assert len(loose) == 1

    def test_documents_without_text_never_collapse(self):
        documents = [
            merged("http://a/1", 0.9, "A", ""),
            merged("http://b/2", 0.5, "B", ""),
        ]
        assert len(collapse_near_duplicates(documents)) == 2

    def test_body_field_used_when_present(self):
        documents = [
            merged("http://a/1", 0.9, "A", "Short", "same body text across mirrors ok"),
            merged("http://b/2", 0.5, "B", "Short", "same body text across mirrors ok"),
        ]
        kept = collapse_near_duplicates(documents, threshold=0.8)
        assert len(kept) == 1

    def test_input_untouched(self):
        documents = [
            merged("http://a/1", 0.9, "A", "Same Exact Title Here"),
            merged("http://b/2", 0.5, "B", "Same Exact Title Here"),
        ]
        collapse_near_duplicates(documents)
        assert len(documents) == 2
