"""The synthetic collection generator: determinism and topical skew."""

import pytest

from repro.corpus.generator import CollectionSpec, generate_collection, zipf_weights
from repro.engine import fields as F


def spec(**overrides):
    defaults = dict(name="Test", topics={"databases": 1.0}, size=30, seed=42)
    defaults.update(overrides)
    return CollectionSpec(**defaults)


class TestSpecValidation:
    def test_unknown_topic_rejected(self):
        with pytest.raises(ValueError):
            generate_collection(spec(topics={"astrology": 1.0}))

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            generate_collection(spec(general_fraction=1.5))
        with pytest.raises(ValueError):
            generate_collection(spec(spanish_fraction=-0.1))


class TestDeterminism:
    def test_same_seed_same_collection(self):
        assert generate_collection(spec()) == generate_collection(spec())

    def test_different_seeds_differ(self):
        a = generate_collection(spec(seed=1))
        b = generate_collection(spec(seed=2))
        assert a != b


class TestDocumentShape:
    def test_size(self):
        assert len(generate_collection(spec(size=17))) == 17

    def test_required_fields_present(self):
        for doc in generate_collection(spec()):
            assert doc.title
            assert doc.author
            assert doc.body
            assert doc.get(F.DATE_LAST_MODIFIED).startswith("199")
            assert doc.linkage.startswith("http://test.example.org/")

    def test_unique_linkages(self):
        docs = generate_collection(spec())
        assert len({doc.linkage for doc in docs}) == len(docs)

    def test_body_length_within_bounds(self):
        for doc in generate_collection(spec(body_words=(50, 60))):
            assert 50 <= len(doc.body.split()) <= 60

    def test_abstract_toggle(self):
        with_abs = generate_collection(spec(with_abstract=True))
        without = generate_collection(spec(with_abstract=False))
        assert any(doc.get(F.ABSTRACT) for doc in with_abs)
        assert all(not doc.get(F.ABSTRACT) for doc in without)


class TestTopicalSkew:
    def test_collections_reflect_their_topics(self):
        """§3.2's scenario: "databases" is common in a DB collection and
        rare in an unrelated one."""
        db_docs = generate_collection(spec(topics={"databases": 1.0}, size=50))
        med_docs = generate_collection(
            spec(topics={"medicine": 1.0}, size=50, seed=43)
        )

        def df(docs, word):
            return sum(1 for doc in docs if word in doc.body.lower().split())

        assert df(db_docs, "databases") > df(med_docs, "databases")
        assert df(med_docs, "patient") > df(db_docs, "patient")

    def test_general_words_shared(self):
        db_docs = generate_collection(spec(general_fraction=0.5))
        text = " ".join(doc.body for doc in db_docs)
        assert "analysis" in text or "system" in text


class TestSpanishMix:
    def test_spanish_fraction_produces_spanish_documents(self):
        docs = generate_collection(spec(spanish_fraction=0.5, size=60))
        spanish = [doc for doc in docs if doc.language == "es"]
        assert 10 < len(spanish) < 50
        assert all(doc.get(F.LANGUAGES) == "es" for doc in spanish)


class TestZipf:
    def test_weights_decrease(self):
        weights = zipf_weights(10)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0

    def test_exponent_steepens(self):
        flat = zipf_weights(10, 0.5)
        steep = zipf_weights(10, 2.0)
        assert steep[9] < flat[9]
