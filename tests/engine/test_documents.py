"""Document model and store."""

from repro.engine import fields as F
from repro.engine.documents import Document, DocumentStore


def make_doc(linkage="http://x/1", title="T", body="some body text"):
    return Document(linkage, {F.TITLE: title, F.BODY_OF_TEXT: body})


class TestDocument:
    def test_field_accessors(self):
        doc = Document(
            "http://x/1",
            {F.TITLE: "A Title", F.AUTHOR: "An Author", F.BODY_OF_TEXT: "body"},
        )
        assert doc.title == "A Title"
        assert doc.author == "An Author"
        assert doc.body == "body"

    def test_missing_field_defaults_empty(self):
        assert make_doc().get(F.ABSTRACT) == ""
        assert make_doc().get(F.ABSTRACT, "n/a") == "n/a"

    def test_text_fields_skips_empty(self):
        doc = Document("http://x/1", {F.TITLE: "T", F.AUTHOR: ""})
        assert dict(doc.text_fields()) == {F.TITLE: "T"}

    def test_size_kbytes_minimum_one(self):
        assert make_doc(title="x", body="").size_kbytes() == 1

    def test_size_kbytes_grows_with_content(self):
        big = make_doc(body="word " * 5000)
        assert big.size_kbytes() > 10

    def test_documents_are_immutable(self):
        doc = make_doc()
        try:
            doc.linkage = "other"  # type: ignore[misc]
            raised = False
        except AttributeError:
            raised = True
        assert raised


class TestDocumentStore:
    def test_dense_ids(self):
        store = DocumentStore()
        ids = [store.add(make_doc(f"http://x/{i}")) for i in range(3)]
        assert ids == [0, 1, 2]
        assert len(store) == 3

    def test_lookup_by_id_and_linkage(self):
        store = DocumentStore()
        store.add(make_doc("http://x/a"))
        store.add(make_doc("http://x/b"))
        assert store[1].linkage == "http://x/b"
        assert store.by_linkage("http://x/a") == 0
        assert store.by_linkage("http://nope") is None

    def test_first_linkage_wins_on_duplicates(self):
        store = DocumentStore()
        store.add(make_doc("http://x/a", title="first"))
        store.add(make_doc("http://x/a", title="second"))
        assert store.by_linkage("http://x/a") == 0

    def test_token_counts(self):
        store = DocumentStore()
        doc_id = store.add(make_doc(), token_count=7)
        assert store.token_count(doc_id) == 7
        other = store.add(make_doc("http://x/b"), token_count=9)
        assert (store.token_count(doc_id), store.token_count(other)) == (7, 9)

    def test_average_token_count(self):
        store = DocumentStore()
        store.add(make_doc("http://x/a"), token_count=10)
        store.add(make_doc("http://x/b"), token_count=20)
        assert store.average_token_count() == 15.0

    def test_average_of_empty_store(self):
        assert DocumentStore().average_token_count() == 0.0

    def test_running_average_stays_exact(self):
        """The O(1) running-sum average must equal a fresh recompute
        after every add, and so must the memoized minimum."""
        import random

        rng = random.Random(42)
        store = DocumentStore()
        for i in range(50):
            store.add(make_doc(f"http://x/{i}"), token_count=rng.randint(0, 40))
            assert store.min_token_count() == min(map(store.token_count, store.ids()))
            expected = sum(store.token_count(d) for d in store.ids()) / len(store)
            assert store.average_token_count() == expected

    def test_running_average_survives_engine_rebuild(self):
        from repro.engine import fields as F
        from repro.engine.search import SearchEngine

        engine = SearchEngine()
        for i in range(6):
            engine.add(
                Document(f"http://x/{i}", {F.BODY_OF_TEXT: "alpha beta " * (i + 1)})
            )
        engine.remove("http://x/3")
        store = engine.store
        assert store.average_token_count() == (
            sum(store.token_count(d) for d in store.ids()) / len(store)
        )

    def test_iteration_in_id_order(self):
        store = DocumentStore()
        for i in range(4):
            store.add(make_doc(f"http://x/{i}", title=str(i)))
        assert [doc.title for doc in store] == ["0", "1", "2", "3"]
