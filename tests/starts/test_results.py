"""SQResults / SQRDocument / TermStats wire behaviour."""

import copy
import dataclasses
import pickle
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given

from repro.starts.ast import STerm
from repro.starts.attributes import FieldRef
from repro.starts.errors import SoifSyntaxError
from repro.starts.lstring import LString
from repro.starts.parser import parse_expression
from repro.starts.query import SQuery
from repro.starts.results import SQRDocument, SQResults, TermStats
from tests.oracles.soif_decode import oracle_results_from_soif_stream
from tests.starts.test_soif_equivalence import facts, results


def stats(text="distributed", tf=10, weight=0.31, df=190):
    return TermStats(STerm(LString(text), FieldRef("body-of-text")), tf, weight, df)


def document():
    return SQRDocument(
        linkage="http://www-db.stanford.edu/~ullman/pub/dood.ps",
        raw_score=0.82,
        sources=("Source-1",),
        fields={"title": "A Comparison", "author": "Jeffrey D. Ullman"},
        term_stats=(stats(), stats("databases", 15, 0.51, 232)),
        doc_size=248,
        doc_count=10213,
    )


class TestTermStats:
    def test_serialize_matches_example8_shape(self):
        line = stats().serialize()
        assert line == '(body-of-text "distributed") 10 0.31 190'

    def test_parse_round_trip(self):
        line = stats().serialize()
        assert TermStats.parse(line) == stats()

    def test_parse_rejects_short_lines(self):
        with pytest.raises(SoifSyntaxError):
            TermStats.parse('(body-of-text "x") 10 0.31')

    def test_parse_rejects_non_terms(self):
        with pytest.raises(SoifSyntaxError):
            TermStats.parse('((a "x") and (b "y")) 1 0.5 2')


class TestSQRDocument:
    def test_round_trip(self):
        doc = document()
        stream = SQResults(sources=("Source-1",), documents=(doc,)).to_soif_stream()
        assert SQResults.from_soif_stream(stream).documents == (doc,)

    def test_linkage_always_present(self):
        with pytest.raises(SoifSyntaxError, match="linkage"):
            SQResults.from_soif_stream(result_stream("@SQRDocument{\n}\n"))

    def test_get_returns_linkage_and_fields(self):
        doc = document()
        assert doc.get("linkage") == doc.linkage
        assert doc.get("author") == "Jeffrey D. Ullman"
        assert doc.get("missing", "") == ""


class TestSQResults:
    def test_stream_round_trip(self):
        results = SQResults(
            sources=("Source-1",),
            actual_filter_expression=parse_expression('(author "Ullman")'),
            actual_ranking_expression=parse_expression('(body-of-text "databases")'),
            documents=(document(),),
        )
        parsed = SQResults.from_soif_stream(results.to_soif_stream())
        assert parsed == results

    def test_example7_actual_query_reporting(self):
        """A source that ignored the ranking expression reports only the
        filter it processed (Example 7)."""
        results = SQResults(
            sources=("Source-1",),
            actual_filter_expression=parse_expression(
                '((author "Ullman") and (title stem "databases"))'
            ),
            actual_ranking_expression=None,
        )
        stream = results.to_soif_stream()
        assert "ActualFilterExpression" in stream
        assert "ActualRankingExpression" not in stream
        parsed = SQResults.from_soif_stream(stream)
        assert parsed.actual_ranking_expression is None

    def test_num_doc_soifs_consistency_checked(self):
        stream = (
            "@SQResults{\nVersion{10}: STARTS 1.0\nSources{1}: S\n"
            "NumDocSOIFs{1}: 2\n}\n"
        )
        with pytest.raises(SoifSyntaxError):
            SQResults.from_soif_stream(stream)

    def test_stream_must_start_with_header(self):
        stream = SQResults(sources=("S",), documents=(document(),)).to_soif_stream()
        doc_stream = stream[stream.index("@SQRDocument{") :]
        with pytest.raises(SoifSyntaxError):
            SQResults.from_soif_stream(doc_stream)

    def test_empty_results_valid(self):
        results = SQResults(sources=("S",))
        parsed = SQResults.from_soif_stream(results.to_soif_stream())
        assert parsed.documents == ()
        assert parsed.num_doc_soifs == 0

    def test_validate_requires_sources(self):
        from repro.starts.errors import ProtocolError

        with pytest.raises(ProtocolError):
            SQResults(sources=()).validate()


def attribute(name: str, value: str) -> str:
    return f"{name}{{{len(value.encode('utf-8'))}}}: {value}\n"


def result_stream(*documents: str, header: str = "") -> str:
    """A hand-written result stream around raw @SQRDocument objects."""
    return (
        "@SQResults{\n" + attribute("Sources", "S") + header + "}\n" + "".join(documents)
    )


def raw_document(name: str, value: str) -> str:
    return "@SQRDocument{\n" + attribute("linkage", "u") + attribute(name, value) + "}\n"


class TestMalformedStreamsRaiseTypedErrors:
    """Whatever is wrong with a result stream, the decode raises
    ``SoifSyntaxError`` naming the attribute — never a bare
    ``ValueError``, ``UnicodeDecodeError`` or ``QuerySyntaxError``."""

    @pytest.mark.parametrize(
        "name, value",
        [
            ("NumDocSOIFs", "abc"),
            ("NumDocSOIFs", ""),
            ("ActualFilterExpression", '(author "'),
            ("ActualRankingExpression", "list("),
            ("ActualRankingExpression", '("databases" 7)'),  # weight outside (0, 1]
            ("ActualFilterExpression", '[toolongtagggg "x"]'),
        ],
    )
    def test_bad_header_values(self, name, value):
        with pytest.raises(SoifSyntaxError, match=name):
            SQResults.from_soif_stream(result_stream(header=attribute(name, value)))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("RawScore", "abc"),
            ("DocSize", "z"),
            ("DocCount", "z"),
            ("TermStats", '("x" 7) 1 1 1'),  # weight outside (0, 1]
            ("TermStats", '[toolongtagggg "x"] 1 1 1'),  # InvalidLanguageTag
        ],
    )
    def test_bad_document_values(self, name, value):
        with pytest.raises(SoifSyntaxError, match=name):
            SQResults.from_soif_stream(result_stream(raw_document(name, value)))

    @pytest.mark.parametrize(
        "stream",
        [
            b"\xff\xfe garbage",
            b"@SQResults{",
            b"@SQ\xffResults{\n}\n",  # template
            b"@SQResults{\nSour\xffces{1}: S\n}\n",  # name
            b"@SQResults{\nSources{1\xff}: S\n}\n",  # count
            b"@SQResults{\nSources{2}: \xff\xfe\n}\n",  # value
            b"@SQResults{\nSources{2}: \xc3\n}\n",  # value cut inside a character
            # Valid UTF-8 as a whole: the count stops inside the "\xc3\xa9",
            # whose second byte would then start the next name.
            b"@SQResults{\nSources{2}: S\xc3\xa9{1}: x\n}\n",
            b"@SQResults{\nSources{1}: S\n}\n@SQRDocument{\nlinkage{1}: u\ntitle{1}: \xc3\xa9\n}\n",
        ],
    )
    def test_non_utf8_and_broken_framing(self, stream):
        with pytest.raises(SoifSyntaxError):
            SQResults.from_soif_stream(stream)

    def test_non_utf8_value_names_its_attribute(self):
        with pytest.raises(SoifSyntaxError, match="Sources"):
            SQResults.from_soif_stream(b"@SQResults{\nSources{2}: \xff\xfe\n}\n")


class TestTermMemo:
    """Each distinct term text of a response is parsed once, for that
    response only."""

    GOOD = '(body-of-text "x") 1 1.0 1'

    @pytest.fixture
    def parses(self, monkeypatch):
        """The texts the decode hands to the expression parser."""
        import repro.starts.results as results_module

        seen = []

        def recording(text):
            seen.append(text)
            return parse_expression(text)

        monkeypatch.setattr(results_module, "parse_expression", recording)
        return seen

    def test_repeated_terms_are_parsed_once_per_response(self, parses):
        stream = result_stream(*[raw_document("TermStats", self.GOOD)] * 5)
        decoded = SQResults.from_soif_stream(stream)
        assert parses.count('(body-of-text "x")') == 1
        expected = (TermStats.parse(self.GOOD),)
        assert [doc.term_stats for doc in decoded.documents] == [expected] * 5

    def test_consecutive_decodes_share_nothing(self, parses):
        stream = result_stream(*[raw_document("TermStats", self.GOOD)] * 3)
        SQResults.from_soif_stream(stream)
        first = list(parses)
        assert '(body-of-text "x")' in first
        SQResults.from_soif_stream(stream)
        # The second response pays for its own parse: no memo outlives
        # the call that made it.
        assert parses == first * 2
        assert not hasattr(TermStats.parse, "cache_info")
        assert not hasattr(SQResults.from_soif_stream, "cache_info")

    @pytest.mark.parametrize(
        "bad",
        [
            '((a "x") and (b "y")) 1 0.5 2',  # not a term
            '(body-of-text "x") 1 1 1.5',  # df is not an integer
            '(body-of-text "x") 1 1',  # a number short
            '(body-of-text "x 1 1 1',  # term does not parse
        ],
    )
    def test_bad_entry_in_the_last_document_still_raises(self, bad):
        documents = [raw_document("TermStats", self.GOOD)] * 3
        documents.append(raw_document("TermStats", self.GOOD + "\n" + bad))
        with pytest.raises(SoifSyntaxError, match="TermStats"):
            SQResults.from_soif_stream(result_stream(*documents))

    QUERY = SQuery(
        filter_expression=parse_expression('(author "Ullman")'),
        ranking_expression=parse_expression('list((body-of-text "x") (title "y" 0.5))'),
    )

    def test_text_the_query_holds_is_looked_up_not_parsed(self, parses):
        rows = '(body-of-text "x") 1 1.0 1\n(title "y" 0.5) 2 0.5 1'
        header = attribute("ActualFilterExpression", '(author "Ullman")') + attribute(
            "ActualRankingExpression", 'list((body-of-text "x") (title "y" 0.5))'
        )
        stream = result_stream(*[raw_document("TermStats", rows)] * 3, header=header)
        decoded = SQResults.from_soif_stream(stream, self.QUERY)
        assert parses == []
        assert decoded.actual_filter_expression is self.QUERY.filter_expression
        assert decoded.actual_ranking_expression is self.QUERY.ranking_expression
        terms = self.QUERY.ranking_expression.terms()
        for document in decoded.documents:
            pairs = zip(document.term_stats, terms, strict=True)
            assert all(stats.term is term for stats, term in pairs)
        assert decoded == SQResults.from_soif_stream(stream)
        # What the query does not hold is parsed, once per response.
        parses.clear()
        other = raw_document("TermStats", '(body-of-text "z") 1 1.0 1')
        SQResults.from_soif_stream(result_stream(other, other), self.QUERY)
        assert parses.count('(body-of-text "z")') == 1

    def test_a_hit_that_is_not_a_term_still_raises(self):
        line = 'list((body-of-text "x") (title "y" 0.5)) 1 0.5 2'
        stream = result_stream(raw_document("TermStats", self.GOOD + "\n" + line))
        with pytest.raises(SoifSyntaxError, match="not a term"):
            SQResults.from_soif_stream(stream, self.QUERY)

    def test_a_rejected_entry_is_not_remembered(self):
        terms = {}
        for _ in range(2):
            with pytest.raises(SoifSyntaxError):
                TermStats.parse('((a "x") and (b "y")) 1 0.5 2', terms)
        assert terms == {}


def untouched(original: SQResults) -> SQResults:
    """``original`` through the wire: documents that have built none of
    ``fields``, ``sources`` and ``version`` yet."""
    return SQResults.from_soif_stream(original.to_soif_stream().encode("utf-8"))


class TestDecodedDocumentsBuildTheirAnswerFieldsWhenFirstRead:
    """A decoded document is an ordinary ``SQRDocument`` whatever is done
    to it first, and reading it cannot fail: the decode checked it all."""

    @given(results())
    def test_every_attribute_reads_as_the_oracle_decoded_it(self, original):
        stream = original.to_soif_stream()
        decoded = SQResults.from_soif_stream(stream)
        for document in decoded.documents:
            assert isinstance(document, SQRDocument)
            for field in dataclasses.fields(document):
                getattr(document, field.name)
            assert document.get("linkage") == document.linkage
        assert facts(decoded) == facts(oracle_results_from_soif_stream(stream))

    @given(results())
    def test_equal_to_the_built_document_from_either_side(self, original):
        assert untouched(original).documents == original.documents
        assert original.documents == untouched(original).documents
        assert untouched(original) == untouched(original)

    @given(results())
    def test_repr_replace_asdict_deepcopy_and_pickle(self, original):
        for built, document in zip(original.documents, untouched(original).documents):
            assert repr(document) == repr(built)
        for built, document in zip(original.documents, untouched(original).documents):
            # What experiments/merging.py does to every document.
            stripped = dataclasses.replace(document, term_stats=())
            assert stripped == dataclasses.replace(built, term_stats=())
        for built, document in zip(original.documents, untouched(original).documents):
            assert dataclasses.asdict(document) == dataclasses.asdict(built)
        assert copy.deepcopy(untouched(original)) == original
        assert copy.copy(untouched(original).documents) == original.documents
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            assert pickle.loads(pickle.dumps(untouched(original), protocol)) == original

    @given(results())
    def test_reencoding_untouched_documents_is_byte_identical(self, original):
        stream = original.to_soif_stream()
        assert SQResults.from_soif_stream(stream).to_soif_stream() == stream

    def test_only_the_three_late_attributes_are_ever_built(self):
        decoded = untouched(SQResults(sources=("S",), documents=(document(),))).documents[0]
        with pytest.raises(AttributeError):
            decoded.no_such_attribute
        # A document that is no decode's (``copy`` and ``pickle`` make
        # such shells) has nothing to build from, and must not recurse.
        shell = object.__new__(SQRDocument)
        for name in ("fields", "sources", "version", "linkage", "__deepcopy__"):
            with pytest.raises(AttributeError):
                getattr(shell, name)

    def test_eight_threads_first_reading_one_document_agree(self):
        original = SQResults(sources=("S",), documents=(document(),) * 50)
        expected = document()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                decoded = untouched(original)
                barrier = threading.Barrier(8)
                seen = []

                def read():
                    barrier.wait(timeout=10)
                    for doc in decoded.documents:
                        seen.append((doc.sources, dict(doc.fields), doc.version))

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 8 * 50
                assert all(
                    read == (expected.sources, expected.fields, expected.version)
                    for read in seen
                )
                assert decoded == original
        finally:
            sys.setswitchinterval(interval)

    def test_held_untouched_responses_retain_no_more_than_built_ones(self):
        """The result cache pins every decoded response.  An untouched
        document swaps its ``fields`` dict, strings and ``sources`` for a
        share of the response text; anything kept per document on top of
        that (a span table, say) shows here before it shows as
        ``peak_rss_mb`` on ``zipf_cached``."""
        streams = [
            SQResults(
                sources=(f"Src-{number:04d}",),
                actual_ranking_expression=parse_expression('(body-of-text "evaluation")'),
                documents=tuple(
                    SQRDocument(
                        linkage=f"http://src-{number:04d}.example.org/doc{rank:04d}.html",
                        raw_score=0.3385 / (rank + 1),
                        sources=(f"Src-{number:04d}",),
                        fields={"title": f"Towards Scalable Precedent over arbitration {rank}"},
                        term_stats=(stats("evaluation", rank + 1, 0.33 / (rank + 1), 14),),
                        doc_count=110 + rank,
                    )
                    for rank in range(10)
                ),
            )
            .to_soif_stream()
            .encode("utf-8")
            for number in range(200)
        ]

        def built(stream):
            decoded = SQResults.from_soif_stream(stream)
            documents = tuple(dataclasses.replace(doc) for doc in decoded.documents)
            return dataclasses.replace(decoded, documents=documents)

        def retained(decode):
            tracemalloc.start()
            try:
                # Each decode gets its own copy of the response, as from
                # a transport; only a decode that keeps it pays for it.
                held = [decode(bytes(bytearray(stream))) for stream in streams]
                return tracemalloc.get_traced_memory()[0], held
            finally:
                tracemalloc.stop()

        lazily, _ = retained(SQResults.from_soif_stream)
        eagerly, _ = retained(built)
        as_before, _ = retained(oracle_results_from_soif_stream)
        assert lazily <= as_before
        # Within the suite's own bound on peak_rss_mb of what the same
        # documents hold once built and the response is let go.
        assert lazily <= 1.05 * eagerly
