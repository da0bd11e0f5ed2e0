"""The positional inverted index."""

from repro.engine.index import InvertedIndex


def build_index():
    index = InvertedIndex()
    index.add_field_tokens(
        0, "body", [("alpha", "Alpha", 0), ("beta", "beta", 1), ("alpha", "alpha", 2)]
    )
    index.add_field_tokens(1, "body", [("beta", "beta", 0), ("gamma", "gamma", 1)])
    index.add_field_tokens(1, "title", [("alpha", "alpha", 0)])
    return index


class TestPostings:
    def test_positions_and_tf(self):
        index = build_index()
        doc_ids, tfs, positions = index.pruned_postings("body", "alpha").positions()
        assert list(doc_ids) == [0]
        assert list(positions) == [0, 2]
        assert list(tfs) == [2]

    def test_per_field_isolation(self):
        index = build_index()
        assert index.pruned_postings("body", "alpha").df == 1
        assert index.pruned_postings("title", "alpha").df == 1

    def test_absent_term_is_empty(self):
        doc_ids, tfs = build_index().pruned_postings("body", "zeta").columns()
        assert len(doc_ids) == len(tfs) == 0

    def test_document_and_collection_frequency(self):
        index = build_index()
        assert index.pruned_postings("body", "beta").df == 2
        assert sum(index.pruned_postings("body", "alpha").columns()[1]) == 2

    def test_document_count_tracks_max_id(self):
        assert build_index().document_count == 2


class TestVocabularyLookups:
    def test_vocabulary_is_sorted(self):
        assert build_index().vocabulary("body") == ["alpha", "beta", "gamma"]

    def test_vocabulary_refreshes_after_adds(self):
        index = build_index()
        assert "delta" not in index.vocabulary("body")
        index.add_field_tokens(2, "body", [("delta", "delta", 0)])
        assert "delta" in index.vocabulary("body")

    def test_prefix_lookup(self):
        index = build_index()
        assert index.terms_with_prefix("body", "al") == ["alpha"]
        assert index.terms_with_prefix("body", "x") == []

    def test_suffix_lookup(self):
        index = build_index()
        assert index.terms_with_suffix("body", "ta") == ["beta"]

    def test_suffix_lookup_refreshes_after_adds(self):
        index = build_index()
        assert index.terms_with_suffix("body", "ta") == ["beta"]
        index.add_field_tokens(2, "body", [("theta", "theta", 0)])
        assert index.terms_with_suffix("body", "ta") == ["beta", "theta"]

    def test_suffix_lookup_matches_linear_scan(self):
        import random

        rng = random.Random(7)
        index = InvertedIndex()
        words = [
            "".join(rng.choices("abc", k=rng.randint(1, 6))) for _ in range(120)
        ]
        for doc_id, word in enumerate(words):
            index.add_field_tokens(doc_id, "body", [(word, word, 0)])
        for suffix in ("", "a", "b", "ab", "ba", "abc", "ccc", "zzz"):
            expected = [t for t in index.vocabulary("body") if t.endswith(suffix)]
            assert index.terms_with_suffix("body", suffix) == expected

    def test_generation_advances_on_mutation(self):
        index = InvertedIndex()
        before = index.generation
        index.add_field_tokens(0, "body", [("alpha", "alpha", 0)])
        assert index.generation > before

    def test_soundex_lookup(self):
        index = InvertedIndex()
        index.add_field_tokens(
            0, "author", [("robert", "Robert", 0), ("rupert", "Rupert", 1)]
        )
        assert index.terms_with_soundex("author", "Robert") == ["robert", "rupert"]

    def test_soundex_refreshes_after_adds(self):
        index = InvertedIndex()
        index.add_field_tokens(0, "author", [("robert", "Robert", 0)])
        assert index.terms_with_soundex("author", "rupert") == ["robert"]
        index.add_field_tokens(1, "author", [("rupert", "Rupert", 0)])
        assert index.terms_with_soundex("author", "rupert") == ["robert", "rupert"]


class TestSummaryStatistics:
    def test_sections_grouped_by_field_and_language(self):
        index = InvertedIndex()
        index.add_field_tokens(0, "title", [("algorithm", "algorithm", 0)], "en-US")
        index.add_field_tokens(1, "title", [("algoritmo", "algoritmo", 0)], "es")
        sections = index.summary_sections()
        assert [(field, lang) for field, lang, _ in sections] == [
            ("title", "en-US"),
            ("title", "es"),
        ]

    def test_postings_and_df_counted(self):
        index = build_index()
        sections = dict(
            ((field, lang), words) for field, lang, words in index.summary_sections()
        )
        body = sections[("body", "en")]
        assert body["beta"].postings == 2
        assert body["beta"].document_frequency == 2
        # "alpha"/"Alpha" differ as surfaces: counted separately.
        assert body["Alpha"].postings == 1
        assert body["alpha"].postings == 1

    def test_df_counts_documents_not_occurrences(self):
        index = InvertedIndex()
        index.add_field_tokens(
            0, "body", [("x", "x", 0), ("x", "x", 1), ("x", "x", 2)]
        )
        sections = index.summary_sections()
        entry = sections[0][2]["x"]
        assert entry.postings == 3
        assert entry.document_frequency == 1
