"""Predicate rewriting (refs [3, 4]): emulating modifiers client-side."""

import pytest

from repro.corpus import source1_documents
from repro.metasearch.rewriting import PredicateRewriter
from repro.metasearch.translation import ClientTranslator
from repro.source import SourceCapabilities, StartsSource
from repro.starts import SQuery, SOr, STerm, parse_expression


@pytest.fixture
def no_stem_source():
    """A source whose engine indexes normally but declares no stem."""
    return StartsSource(
        "NoStem",
        source1_documents(),
        capabilities=SourceCapabilities.full_basic1().without_modifiers(
            "stem", "phonetic", "right-truncation", "left-truncation"
        ),
    )


def rewrite(expression_text, source):
    rewriter = PredicateRewriter()
    node = parse_expression(expression_text)
    rewritten, report = rewriter.rewrite(
        node, source.metadata(), source.content_summary()
    )
    return rewritten, report


class TestStemRewriting:
    def test_stem_becomes_or_of_variants(self, no_stem_source):
        rewritten, report = rewrite('(title stem "databases")', no_stem_source)
        assert len(report.rewritten) == 1
        assert isinstance(rewritten, SOr)
        words = sorted(t.lstring.text for t in rewritten.terms())
        # The summary's title vocabulary contains both surface forms.
        assert "database" in words and "databases" in words

    def test_rewritten_terms_carry_no_stem_modifier(self, no_stem_source):
        rewritten, _ = rewrite('(title stem "databases")', no_stem_source)
        for term in rewritten.terms():
            assert "stem" not in term.modifier_names()

    def test_supported_modifiers_left_alone(self, source1):
        rewriter = PredicateRewriter()
        node = parse_expression('(title stem "databases")')
        rewritten, report = rewriter.rewrite(
            node, source1.metadata(), source1.content_summary()
        )
        assert rewritten == node
        assert len(report.rewritten) == 0

    def test_no_vocabulary_match_keeps_term(self, no_stem_source):
        rewritten, report = rewrite('(title stem "xylophones")', no_stem_source)
        assert isinstance(rewritten, STerm)
        assert report.not_rewritable


class TestOtherModifiers:
    def test_phonetic_rewriting(self, no_stem_source):
        rewritten, report = rewrite('(author phonetic "Ullmann")', no_stem_source)
        assert len(report.rewritten) == 1
        words = [t.lstring.text for t in rewritten.terms()]
        assert "ullman" in words

    def test_right_truncation_rewriting(self, no_stem_source):
        rewritten, report = rewrite(
            '(body-of-text right-truncation "databas")', no_stem_source
        )
        words = [t.lstring.text for t in rewritten.terms()]
        assert any(word.startswith("databas") for word in words)

    def test_prox_operands_not_rewritten(self, no_stem_source):
        rewritten, report = rewrite(
            '((body-of-text stem "databases") prox[1,T] (body-of-text "systems"))',
            no_stem_source,
        )
        assert len(report.rewritten) == 0  # prox terms must stay atomic


class TestEndToEndRecovery:
    def test_rewriting_recovers_stem_recall(self, no_stem_source):
        """The headline: with rewriting, a no-stem source answers a stem
        query as if it supported stemming."""
        query = SQuery(
            filter_expression=parse_expression('(title stem "databases")')
        )

        plain = ClientTranslator()
        translated_plain, _ = plain.translate(query, no_stem_source.metadata())
        hits_plain = no_stem_source.search(translated_plain).documents

        rewriting = ClientTranslator(rewriter=PredicateRewriter())
        translated_rw, report = rewriting.translate(
            query, no_stem_source.metadata(), summary=no_stem_source.content_summary()
        )
        hits_rw = no_stem_source.search(translated_rw).documents

        # Without rewriting the stem modifier is dropped: only the
        # exact plural form matches.  With rewriting both forms match.
        assert len(hits_rw) > len(hits_plain)
        assert any("dood" in doc.linkage for doc in hits_rw)
        assert any(note.startswith("rewritten") for note in report.dropped)

    def test_no_summary_means_no_rewriting(self, no_stem_source):
        rewriting = ClientTranslator(rewriter=PredicateRewriter())
        query = SQuery(
            filter_expression=parse_expression('(title stem "databases")')
        )
        translated, report = rewriting.translate(query, no_stem_source.metadata())
        # Falls back to dropping the modifier, as without a rewriter.
        assert not any(note.startswith("rewritten") for note in report.dropped)


class TestExpansionCap:
    def test_max_expansion_respected(self, no_stem_source):
        rewriter = PredicateRewriter(max_expansion=2)
        node = parse_expression('(body-of-text right-truncation "d")')
        rewritten, report = rewriter.rewrite(
            node, no_stem_source.metadata(), no_stem_source.content_summary()
        )
        assert len(rewritten.terms()) <= 2
