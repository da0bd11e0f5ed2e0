"""The heart of the tentpole: segments must be invisible.

An engine with a ``storage_dir`` — whatever mix of tail, flushes, and
merges its history took — must answer every query **bit-identically**
to an engine with no directory (the oracle: its tail is the whole
index) over the same documents.  So must an engine warmed from the
same directory in a "new process".
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.corpus import CollectionSpec, generate_collection, source1_documents
from repro.engine import fields as F
from repro.engine.index import TermState
from repro.engine.query import BooleanQuery, ListQuery, ProxQuery, TermQuery
from repro.engine.search import SearchEngine
from repro.storage import StorageError, TieredMergePolicy


def t(text, field=F.BODY_OF_TEXT, **kwargs):
    return TermQuery(field, text, **kwargs)


QUERIES = [
    (t("databases"), None),
    (None, ListQuery((t("distributed"), t("databases")))),
    (BooleanQuery("and", (t("distributed"), t("databases"))), None),
    (BooleanQuery("and-not", (t("databases"), t("deductive"))), None),
    (ProxQuery(t("deductive"), t("databases"), 1, True), None),
    (t("data", modifiers=frozenset({"right-truncation"})), None),
    (None, ListQuery((t("databases", weight=2.0), t("systems")))),
    (t("1996-01-01", field=F.DATE_LAST_MODIFIED, modifiers=frozenset({">="})), None),
]


def assert_equivalent(oracle, candidate):
    """Every query answers identically, and so do the statistics."""
    for filter_query, ranking_query in QUERIES:
        assert oracle.search(filter_query, ranking_query) == candidate.search(
            filter_query, ranking_query
        ), (filter_query, ranking_query)
    assert oracle.document_count == candidate.document_count
    assert oracle.store.average_token_count() == candidate.store.average_token_count()
    assert oracle.index.summary_sections() == candidate.index.summary_sections()
    for field in oracle.index.fields():
        assert oracle.index.vocabulary(field) == candidate.index.vocabulary(field)


def corpus():
    """The hand-written source-1 docs plus a generated tail: 15 documents."""
    return source1_documents() + generate_collection(
        CollectionSpec(
            name="gen",
            topics={"databases": 1.0, "networking": 0.5},
            size=12,
            body_words=(10, 25),
            seed=5,
        )
    )


def build_pair(tmp_path, documents, flush_every=None, merge_policy=None):
    oracle = SearchEngine()
    oracle.add_all(documents)
    segmented = SearchEngine(
        storage="segments",
        storage_dir=tmp_path / "store",
        merge_policy=merge_policy,
    )
    for i, document in enumerate(documents):
        segmented.add(document)
        if flush_every and (i + 1) % flush_every == 0:
            segmented.flush()
    return oracle, segmented


class TestEquivalence:
    def test_pure_tail(self, tmp_path):
        oracle, segmented = build_pair(tmp_path, source1_documents())
        assert_equivalent(oracle, segmented)
        segmented.close()

    def test_flushed_and_tail_mix(self, tmp_path):
        oracle, segmented = build_pair(tmp_path, corpus(), flush_every=4)
        assert segmented.segment_store.segment_count == 3  # and a 3-doc tail
        assert_equivalent(oracle, segmented)
        segmented.close()

    def test_after_merges(self, tmp_path):
        documents = generate_collection(
            CollectionSpec(
                name="merge",
                topics={"databases": 1.0},
                size=16,
                body_words=(10, 20),
                seed=3,
            )
        )
        oracle, segmented = build_pair(
            tmp_path,
            documents,
            flush_every=2,
            merge_policy=TieredMergePolicy(merge_factor=2),
        )
        before = segmented.segment_store.segment_count
        assert before == 8
        segmented.checkpoint(merge=True)
        assert segmented.segment_store.segment_count < before
        assert_equivalent(oracle, segmented)
        segmented.close()

    def test_warm_reopen(self, tmp_path):
        oracle, segmented = build_pair(tmp_path, corpus(), flush_every=4)
        segmented.checkpoint()
        segmented.close()
        warmed = SearchEngine(storage="segments", storage_dir=tmp_path / "store")
        assert_equivalent(oracle, warmed)
        warmed.close()

    def test_indexing_continues_after_reopen(self, tmp_path):
        documents = corpus()
        oracle, segmented = build_pair(tmp_path, documents[:5])
        segmented.checkpoint()
        segmented.close()
        warmed = SearchEngine(storage="segments", storage_dir=tmp_path / "store")
        warmed.add_all(documents[5:])
        oracle.add_all(documents[5:])
        assert_equivalent(oracle, warmed)
        warmed.close()

    def test_generated_collection(self, tmp_path):
        documents = generate_collection(
            CollectionSpec(
                name="gen",
                topics={"databases": 1.0, "networking": 0.5},
                size=60,
                body_words=(20, 40),
                seed=11,
            )
        )
        oracle, segmented = build_pair(
            tmp_path,
            documents,
            flush_every=7,
            merge_policy=TieredMergePolicy(merge_factor=3),
        )
        segmented.maybe_merge()
        assert_equivalent(oracle, segmented)
        segmented.close()


class TestMutation:
    def test_remove_rebuilds_exactly(self, tmp_path):
        documents = corpus()
        oracle, segmented = build_pair(tmp_path, documents, flush_every=3)
        victim = documents[2].linkage
        assert oracle.remove(victim)
        assert segmented.remove(victim)
        assert_equivalent(oracle, segmented)
        segmented.close()

    def test_remove_commits_exactly_the_survivors(self, tmp_path):
        """No flush after ``remove``: a reopen must still find every
        committed survivor, the tail's too — and nothing else."""
        documents = corpus()
        oracle, segmented = build_pair(tmp_path, documents[:9], flush_every=4)
        assert segmented.store.tail_rows()  # one document only in the tail
        victim = documents[2].linkage
        assert oracle.remove(victim)
        assert segmented.remove(victim)
        segmented.close()
        reopened = SearchEngine(storage="segments", storage_dir=tmp_path / "store")
        assert_equivalent(oracle, reopened)
        for document in documents[:9]:
            assert reopened.remove(document.linkage) == (document.linkage != victim)
        reopened.close()
        emptied = SearchEngine(storage="segments", storage_dir=tmp_path / "store")
        assert emptied.document_count == 0
        assert [p.name for p in (tmp_path / "store").iterdir() if p.is_dir()] == []
        emptied.close()

    def test_replace_after_checkpoint(self, tmp_path):
        documents = corpus()
        oracle, segmented = build_pair(tmp_path, documents, flush_every=3)
        segmented.checkpoint()
        replacement = documents[0]
        oracle.replace(replacement)
        segmented.replace(replacement)
        assert_equivalent(oracle, segmented)
        segmented.close()

    def test_tombstone_hides_document(self, tmp_path):
        documents = corpus()
        _, segmented = build_pair(tmp_path, documents, flush_every=3)
        victim = documents[1]
        assert segmented.tombstone(victim.linkage)
        assert not segmented.tombstone(victim.linkage)  # already gone
        hits = segmented.search(t("databases"))
        assert all(
            segmented.store[hit.doc_id].linkage != victim.linkage for hit in hits
        )
        assert segmented.store.by_linkage(victim.linkage) is None
        assert segmented.document_count == len(documents) - 1
        # tombstones survive a restart, then a merge reclaims the bytes
        segmented.checkpoint()
        segmented.close()
        warmed = SearchEngine(
            storage="segments",
            storage_dir=tmp_path / "store",
            merge_policy=TieredMergePolicy(merge_factor=2),
        )
        assert warmed.document_count == len(documents) - 1
        warmed.segment_store.merge_all()
        assert warmed.segment_store.tombstones == set()
        hits = warmed.search(t("databases"))
        assert all(
            warmed.store[hit.doc_id].linkage != victim.linkage for hit in hits
        )
        warmed.close()

    def test_tombstone_requires_segments(self):
        engine = SearchEngine()
        with pytest.raises(StorageError, match="segments"):
            engine.tombstone("http://nope")


def tail_record(engine, field, term):
    """The tail's own record of ``term``, as ``add_field_tokens`` keeps it."""
    return engine.index._postings[field][term]


class TestOneEngine:
    """A memory engine is an engine whose store has no directory."""

    def test_no_directory_reads_the_tail_and_commits_nothing(self):
        engine = SearchEngine()
        engine.add_all(corpus())
        assert engine.segment_store.directory is None
        state = engine.index.pruned_postings(F.BODY_OF_TEXT, "databases")
        assert type(state) is TermState
        assert state is tail_record(engine, F.BODY_OF_TEXT, "databases")
        assert engine.store[3] is engine.store._documents[3]
        assert engine.flush() is False
        assert engine.maybe_merge() is False
        for operation in (lambda: engine.tombstone(corpus()[0].linkage), engine.checkpoint):
            with pytest.raises(StorageError, match="storage_dir"):
                operation()
        assert engine.document_count == len(corpus())  # nothing was lost
        engine.close()

    def test_before_its_first_flush_a_segments_engine_is_the_same_engine(self, tmp_path):
        oracle, segmented = build_pair(tmp_path, corpus())
        assert segmented.segment_store.segment_count == 0
        state = segmented.index.pruned_postings(F.BODY_OF_TEXT, "databases")
        assert state is tail_record(segmented, F.BODY_OF_TEXT, "databases")
        # hits with their TermStats, summary sections and vocabulary
        assert_equivalent(oracle, segmented)
        assert oracle.index.fields() == segmented.index.fields()
        # The first flush moves the term behind an accessor; nothing else.
        assert segmented.flush()
        assert type(segmented.index.pruned_postings(F.BODY_OF_TEXT, "databases")) is not TermState
        assert_equivalent(oracle, segmented)
        segmented.close()

    def test_remove_keeps_an_engine_without_a_directory_one(self):
        engine = SearchEngine()
        documents = corpus()
        engine.add_all(documents)
        assert engine.remove(documents[2].linkage)
        assert engine.segment_store.directory is None
        assert engine.index._segment_store is engine.segment_store
        assert engine.store.ids() == list(range(len(documents) - 1))
        assert engine.flush() is False


class TestGuards:
    def test_storage_dir_required(self):
        with pytest.raises(ValueError, match="storage_dir"):
            SearchEngine(storage="segments")
        with pytest.raises(ValueError, match="storage_dir"):
            SearchEngine(storage="memory", storage_dir="/tmp/x")

    def test_storage_dir_alone_decides(self, tmp_path):
        engine = SearchEngine(storage_dir=tmp_path / "s")
        engine.add_all(source1_documents())
        assert engine.flush() and engine.segment_store.segment_count == 1
        engine.close()
        assert SearchEngine(storage="memory").segment_store.directory is None

    def test_unknown_storage_mode(self):
        with pytest.raises(ValueError, match="storage mode"):
            SearchEngine(storage="papyrus")

    def test_analyzer_mismatch_on_open(self, tmp_path):
        from repro.text.analysis import Analyzer

        engine = SearchEngine(storage="segments", storage_dir=tmp_path / "s")
        engine.close()
        with pytest.raises(StorageError, match="analyzer mismatch"):
            SearchEngine(
                analyzer=Analyzer(stem=True),
                storage="segments",
                storage_dir=tmp_path / "s",
            )


WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]


@st.composite
def histories(draw):
    """A document history with flush points sprinkled through it."""
    n_docs = draw(st.integers(1, 14))
    documents = []
    for i in range(n_docs):
        n_words = draw(st.integers(1, 8))
        body = " ".join(
            draw(st.sampled_from(WORDS)) for _ in range(n_words)
        )
        title = draw(st.sampled_from(WORDS))
        documents.append((f"http://h/{i}", title, body))
    flush_after = draw(st.sets(st.integers(0, n_docs - 1)))
    merge_at_end = draw(st.booleans())
    return documents, flush_after, merge_at_end


class TestPropertyEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(histories())
    def test_any_history_matches_oracle(self, tmp_path, history):
        """Flushed, merged and reopened stores against the engine with
        no directory over the same documents."""
        import shutil

        from repro.engine.documents import Document

        documents, flush_after, merge_at_end = history
        store_dir = tmp_path / "prop-store"
        shutil.rmtree(store_dir, ignore_errors=True)

        oracle = SearchEngine()
        segmented = SearchEngine(
            storage="segments",
            storage_dir=store_dir,
            merge_policy=TieredMergePolicy(merge_factor=2),
        )
        for i, (linkage, title, body) in enumerate(documents):
            document = Document(linkage, {F.TITLE: title, F.BODY_OF_TEXT: body})
            oracle.add(document)
            segmented.add(document)
            if i in flush_after:
                segmented.flush()
        if merge_at_end:
            segmented.checkpoint(merge=True)

        for word in WORDS:
            query = ListQuery((t(word), t(word, field=F.TITLE)))
            assert oracle.search(ranking_query=query) == segmented.search(
                ranking_query=query
            )
            assert oracle.evaluate_filter(t(word)) == segmented.evaluate_filter(
                t(word)
            )
        assert oracle.index.summary_sections() == segmented.index.summary_sections()

        # ...and a warm reopen of the same directory still matches.
        segmented.checkpoint()
        segmented.close()
        warmed = SearchEngine(
            storage="segments",
            storage_dir=store_dir,
            merge_policy=TieredMergePolicy(merge_factor=2),
        )
        query = ListQuery(tuple(t(word) for word in WORDS))
        assert oracle.search(ranking_query=query) == warmed.search(
            ranking_query=query
        )
        warmed.close()
