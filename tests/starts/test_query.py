"""SQuery: defaults, validation, SOIF round trips."""

import pytest
from hypothesis import given, strategies as st

from repro.starts.ast import SList, STerm
from repro.starts.errors import ProtocolError, SoifSyntaxError
from repro.starts.lstring import LString
from repro.starts.parser import parse_expression
from repro.starts.query import SCORE_SORT_FIELD, SortKey, SQuery
from repro.starts.soif import parse_soif


def ranking():
    return SList((STerm(LString("databases")),))


class TestDefaults:
    def test_section_412_defaults(self):
        """§4.1.2: answer fields default to Title (plus Linkage, always
        returned); sort defaults to score descending."""
        query = SQuery(ranking_expression=ranking())
        assert query.answer_fields == ("title",)
        assert query.sort_keys == (SortKey(SCORE_SORT_FIELD, descending=True),)
        assert query.drop_stop_words is True
        assert query.default_attribute_set == "basic-1"
        assert query.default_language == "en-US"


class TestValidation:
    def test_needs_some_expression(self):
        with pytest.raises(ProtocolError):
            SQuery().validate()

    def test_filter_only_valid(self):
        SQuery(filter_expression=parse_expression('(title "x")')).validate()

    def test_ranking_only_valid(self):
        SQuery(ranking_expression=ranking()).validate()

    def test_negative_max_docs_rejected(self):
        with pytest.raises(ProtocolError):
            SQuery(ranking_expression=ranking(), max_number_documents=-1).validate()


class TestSortKey:
    def test_serialize(self):
        assert SortKey("score", True).serialize() == "score d"
        assert SortKey("title", False).serialize() == "title a"

    def test_parse(self):
        assert SortKey.parse("title a") == SortKey("title", False)
        assert SortKey.parse("score") == SortKey("score", True)

    def test_parse_rejects_bad_direction(self):
        with pytest.raises(SoifSyntaxError):
            SortKey.parse("title x")


class TestSoifRoundTrip:
    def test_full_round_trip(self, example6_query):
        text = example6_query.to_soif().dump()
        assert SQuery.from_soif(parse_soif(text)) == example6_query

    def test_example6_attribute_names_on_wire(self, example6_query):
        """The SOIF attribute names match the paper's Example 6."""
        text = example6_query.to_soif().dump()
        for name in (
            "Version{10}: STARTS 1.0",
            "FilterExpression{",
            "RankingExpression{",
            "DropStopWords{1}: T",
            "DefaultAttributeSet{7}: basic-1",
            "DefaultLanguage{5}: en-US",
            "AnswerFields{12}: title author",
            "MinDocumentScore{3}: 0.5",
            "MaxNumberDocuments{2}: 10",
        ):
            assert name in text

    def test_example6_byte_counts_match_paper(self, example6_query):
        """The paper shows FilterExpression{48}: our canonical
        serialization of the same expression has the same 48 bytes."""
        text = example6_query.to_soif().dump()
        assert "FilterExpression{48}:" in text
        assert "RankingExpression{61}:" in text

    def test_sources_round_trip(self):
        query = SQuery(ranking_expression=ranking()).with_sources("Source-2", "Source-3")
        parsed = SQuery.from_soif(parse_soif(query.to_soif().dump()))
        assert parsed.sources == ("Source-2", "Source-3")

    def test_missing_optional_attributes_take_defaults(self):
        text = '@SQuery{\nRankingExpression{17}: list("databases")\n}\n'
        query = SQuery.from_soif(parse_soif(text))
        assert query.drop_stop_words is True
        assert query.max_number_documents == 20
        assert query.answer_fields == ("title",)

    def test_empty_answer_fields_stay_empty(self):
        """Present but empty asks for linkage alone, as it does of a
        source in-process; only an absent one takes the default."""
        query = SQuery(ranking_expression=ranking(), answer_fields=())
        assert "AnswerFields{0}: \n" in query.to_soif().dump()
        assert SQuery.from_soif(parse_soif(query.to_soif().dump())) == query

    def test_names_match_in_any_case_and_the_first_value_wins(self):
        text = (
            "@SQuery{\nMAXNUMBERDOCUMENTS{1}: 7\nmaxnumberdocuments{1}: 9\n"
            'rankingexpression{17}: list("databases")\nAnswerFields{6}: author\n'
            "ANSWERFIELDS{5}: title\n}\n"
        )
        query = SQuery.from_soif(parse_soif(text))
        assert query.max_number_documents == 7
        assert query.ranking_expression == parse_expression('list("databases")')
        assert query.answer_fields == ("author",)

    def test_an_absent_or_empty_expression_never_reaches_the_parser(self, monkeypatch):
        import repro.starts.query as query_module

        parsed = []

        def recording(text):
            parsed.append(text)
            return parse_expression(text)

        monkeypatch.setattr(query_module, "parse_expression", recording)
        text = '@SQuery{\nFilterExpression{0}: \nRankingExpression{17}: list("databases")\n}\n'
        query = SQuery.from_soif(parse_soif(text))
        assert parsed == ['list("databases")']
        assert query.filter_expression is None

    def test_wrong_template_rejected(self):
        with pytest.raises(SoifSyntaxError):
            SQuery.from_soif(parse_soif("@Wrong{\n}\n"))

    def test_bad_flag_rejected(self):
        text = "@SQuery{\nDropStopWords{1}: X\n}\n"
        with pytest.raises(SoifSyntaxError):
            SQuery.from_soif(parse_soif(text))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("MaxNumberDocuments", "ten"),
            ("MaxNumberDocuments", "3.5"),
            ("MinDocumentScore", "high"),
            ("SortByFields", "title d, author sideways"),
            ("SortByFields", "a b c"),
        ],
    )
    def test_malformed_attributes_raise_the_typed_error_naming_them(self, name, value):
        text = (
            '@SQuery{\nRankingExpression{17}: list("databases")\n'
            f"{name}{{{len(value)}}}: {value}\n}}\n"
        )
        with pytest.raises(SoifSyntaxError, match=name):
            SQuery.from_soif(parse_soif(text))

    @pytest.mark.parametrize("floor", [0.123456789, 1234567.5, 1e-9, 5e-324, 1e22, 3.0])
    def test_min_document_score_is_exact_on_the_wire(self, floor):
        query = SQuery(ranking_expression=ranking(), min_document_score=floor)
        parsed = SQuery.from_soif(parse_soif(query.to_soif().dump()))
        assert parsed.min_document_score == floor
        assert parsed == query

    def test_integer_floor_keeps_its_wire_form(self):
        text = SQuery(ranking_expression=ranking(), min_document_score=0).to_soif().dump()
        assert "MinDocumentScore{3}: 0.0" in text


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_any_finite_floor_round_trips(floor):
    query = SQuery(ranking_expression=ranking(), min_document_score=floor)
    assert SQuery.from_soif(parse_soif(query.to_soif().dump())) == query


class TestHelpers:
    def test_expression_terms_spans_both_expressions(self, example6_query):
        texts = [t.lstring.text for t in example6_query.expression_terms()]
        assert texts == ["Ullman", "databases", "distributed", "databases"]
