"""The SOIF wire encoding: byte counts, multiline values, streams."""

import pytest
from hypothesis import given, strategies as st

from repro.starts.errors import SoifSyntaxError
from repro.starts.soif import SoifObject, parse_soif, parse_soif_stream


class TestDump:
    def test_simple_object(self):
        obj = SoifObject("SQuery").add("Version", "STARTS 1.0")
        assert obj.dump() == "@SQuery{\nVersion{10}: STARTS 1.0\n}\n"

    def test_byte_count_is_utf8_bytes(self):
        obj = SoifObject("T").add("word", "análisis")
        # "análisis" is 8 characters but 9 UTF-8 bytes.
        assert "word{9}: análisis" in obj.dump()

    def test_multiline_value(self):
        obj = SoifObject("T").add("lines", "a\nb")
        assert "lines{3}: a\nb" in obj.dump()


class TestParse:
    def test_round_trip(self):
        obj = SoifObject("SQuery")
        obj.add("Version", "STARTS 1.0")
        obj.add("FilterExpression", '((author "Ullman") and\n(title "databases"))')
        obj.add("Unicode", "algoritmo análisis ñ")
        assert parse_soif(obj.dump()) == obj

    def test_paper_example6_layout(self):
        """A query hand-encoded like the paper's Example 6 parses."""
        text = (
            "@SQuery{\n"
            "Version{10}: STARTS 1.0\n"
            "DropStopWords{1}: T\n"
            "MaxNumberDocuments{2}: 10\n"
            "}\n"
        )
        obj = parse_soif(text)
        assert obj.template == "SQuery"
        assert obj["DropStopWords"] == "T"
        assert obj["MaxNumberDocuments"] == "10"

    def test_value_with_exact_byte_count_spanning_lines(self):
        text = "@T{\nv{3}: a\nb\n}\n"
        assert parse_soif(text)["v"] == "a\nb"

    def test_lookup_case_insensitive(self):
        obj = parse_soif("@T{\nName{1}: x\n}\n")
        assert obj.get("name") == "x"
        assert "NAME" in obj

    def test_missing_attribute(self):
        obj = parse_soif("@T{\n}\n")
        assert obj.get("nope") is None
        with pytest.raises(KeyError):
            obj["nope"]

    def test_repeated_attributes_preserved_in_order(self):
        obj = SoifObject("S")
        obj.add("Field", "title").add("Field", "author")
        parsed = parse_soif(obj.dump())
        assert parsed.pairs() == [("Field", "title"), ("Field", "author")]
        assert parsed.get("Field") == "title"

    def test_empty_value(self):
        obj = SoifObject("T").add("empty", "")
        assert parse_soif(obj.dump())["empty"] == ""


class TestStream:
    def test_multiple_objects(self):
        stream = "\n".join(
            [SoifObject("A").add("x", "1").dump(), SoifObject("B").add("y", "2").dump()]
        )
        objects = parse_soif_stream(stream)
        assert [obj.template for obj in objects] == ["A", "B"]

    def test_empty_stream(self):
        assert parse_soif_stream("") == []
        assert parse_soif_stream("  \n ") == []


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "SQuery{\n}",            # missing @
            "@{\n}",                  # empty template
            "@T{\nv{abc}: x\n}",     # non-numeric count
            "@T{\nv{100}: short\n}", # count exceeds data
            "@T{\nv{1} x\n}",        # missing colon
            "@T{\nv{1}: x\n",        # unterminated object
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(SoifSyntaxError):
            parse_soif(bad)

    def test_trailing_garbage_rejected_for_single_parse(self):
        with pytest.raises(SoifSyntaxError):
            parse_soif("@T{\n}\ngarbage")


@given(
    st.lists(
        st.tuples(
            st.text(alphabet="ABCdef", min_size=1, max_size=10),
            st.text(max_size=50).filter(lambda s: "\r" not in s),
        ),
        max_size=8,
    )
)
def test_round_trip_property(pairs):
    obj = SoifObject("Prop", pairs)
    assert parse_soif(obj.dump()) == obj
