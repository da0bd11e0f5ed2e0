"""SMetaAttributes, SContentSummary and SResource."""

import math

import pytest

from repro.source.sample import SampleResults
from repro.starts.attributes import FieldRef, ModifierRef
from repro.starts.errors import SoifSyntaxError
from repro.starts.metadata import (
    MBASIC1_ATTRIBUTES,
    SContentSummary,
    SMetaAttributes,
    SResource,
    SummaryEntryLine,
    SummarySection,
)
from repro.starts.soif import parse_soif


def meta(**overrides):
    defaults = dict(
        source_id="Source-1",
        fields_supported=((FieldRef("author", "basic-1"), ("en-US",)),),
        modifiers_supported=((ModifierRef("phonetic", "basic-1"), ()),),
        field_modifier_combinations=(
            (FieldRef("author", "basic-1"), ModifierRef("phonetic", "basic-1")),
        ),
        query_parts_supported="RF",
        score_range=(0.0, 1.0),
        ranking_algorithm_id="Acme-1",
        tokenizer_id_list=(("Acme-1", "en-US"), ("Acme-2", "es")),
        sample_database_results="http://s1/sample",
        stop_word_list=("the", "a"),
        turn_off_stop_words=True,
        source_languages=("en-US", "es"),
        source_name="Stanford DB Group",
        linkage="http://www-db.stanford.edu/cgi-bin/query",
        content_summary_linkage="ftp://www-db.stanford.edu/cont_sum.txt",
        date_changed="1996-03-31",
    )
    defaults.update(overrides)
    return SMetaAttributes(**defaults)


class TestMBasic1Table:
    """T3 of DESIGN.md: the MBasic-1 table row by row."""

    PAPER_ROWS = [
        ("FieldsSupported", True, True),
        ("ModifiersSupported", True, True),
        ("FieldModifierCombinations", True, True),
        ("QueryPartsSupported", False, True),
        ("ScoreRange", True, True),
        ("RankingAlgorithmID", True, True),
        ("TokenizerIDList", False, True),
        ("SampleDatabaseResults", True, True),
        ("StopWordList", True, True),
        ("TurnOffStopWords", True, True),
        ("SourceLanguages", False, False),
        ("SourceName", False, False),
        ("Linkage", True, False),
        ("ContentSummaryLinkage", True, True),
        ("DateChanged", False, False),
        ("DateExpires", False, False),
        ("Abstract", False, False),
        ("AccessConstraints", False, False),
        ("Contact", False, False),
    ]

    def test_exactly_nineteen_attributes(self):
        assert len(MBASIC1_ATTRIBUTES) == 19

    @pytest.mark.parametrize("name,required,new", PAPER_ROWS)
    def test_row(self, name, required, new):
        spec = next(s for s in MBASIC1_ATTRIBUTES if s.name == name)
        assert spec.required is required
        assert spec.new is new


class TestSMetaAttributes:
    def test_round_trip(self):
        m = meta()
        assert SMetaAttributes.from_soif(parse_soif(m.to_soif().dump())) == m

    def test_example10_wire_names(self):
        text = meta().to_soif().dump()
        for fragment in (
            "SourceID{8}: Source-1",
            "QueryPartsSupported{2}: RF",
            "ScoreRange{7}: 0.0 1.0",
            "RankingAlgorithmID{6}: Acme-1",
            "DefaultMetaAttributeSet{8}: mbasic-1",
            "source-name{17}: Stanford DB Group",
            "date-changed{10}: 1996-03-31",
        ):
            assert fragment in text

    def test_infinite_score_range(self):
        m = meta(score_range=(0.0, math.inf))
        parsed = SMetaAttributes.from_soif(parse_soif(m.to_soif().dump()))
        assert parsed.score_range == (0.0, math.inf)

    def test_slash_in_field_names_survives(self):
        m = meta(
            fields_supported=(
                (FieldRef("date/time-last-modified", "basic-1"), ()),
                (FieldRef("author", "basic-1"), ("en-US", "es")),
            )
        )
        parsed = SMetaAttributes.from_soif(parse_soif(m.to_soif().dump()))
        assert parsed.fields_supported == m.fields_supported

    def test_capability_checks(self):
        m = meta()
        assert m.supports_field("author")
        assert not m.supports_field("abstract")
        assert m.supports_modifier("phonetic")
        assert m.combination_is_legal("author", "phonetic")
        assert not m.combination_is_legal("author", "stem")
        assert m.supports_ranking() and m.supports_filter()

    def test_query_parts_checks(self):
        assert not meta(query_parts_supported="F").supports_ranking()
        assert not meta(query_parts_supported="R").supports_filter()

    def test_empty_combinations_fall_back_to_individual_support(self):
        m = meta(field_modifier_combinations=())
        assert m.combination_is_legal("author", "phonetic")


class TestSContentSummary:
    def summary(self):
        return SContentSummary(
            num_docs=892,
            sections=(
                SummarySection(
                    "title",
                    "en-US",
                    (
                        SummaryEntryLine("algorithm", 100, 53),
                        SummaryEntryLine("analysis", 50, 23),
                    ),
                ),
                SummarySection(
                    "title",
                    "es",
                    (
                        SummaryEntryLine("algoritmo", 23, 11),
                        SummaryEntryLine("datos", 59, 12),
                    ),
                ),
            ),
        )

    def test_round_trip(self):
        s = self.summary()
        assert SContentSummary.from_soif(parse_soif(s.to_soif().dump())) == s

    def test_example11_wire_shape(self):
        text = self.summary().to_soif().dump()
        assert "Stemming{1}: F" in text
        assert "NumDocs{3}: 892" in text
        assert '"algorithm" 100 53' in text
        assert "Language{2}: es" in text

    def test_example11_lookups(self):
        """The paper reads its Example 11: "datos" appears in the title
        of 12 documents; "algorithm" has 100 postings."""
        s = self.summary()
        assert s.document_frequency("datos") == 12
        assert s.word_statistics()["algorithm"][0] == 100

    def test_lookup_respects_field_restriction(self):
        """Field-qualified counts are the sections' own (``Field``), and
        they survive the wire."""
        s = SContentSummary.from_soif(parse_soif(self.summary().to_soif().dump()))
        assert {section.field for section in s.sections} == {"title"}
        title = [entry for section in s.sections for entry in section.entries]
        assert [e.document_frequency for e in title if e.word == "algorithm"] == [53]

    def test_case_insensitive_lookup_when_declared(self):
        s = self.summary()
        assert s.document_frequency("Algorithm") == 53

    def test_missing_word_is_zero(self):
        assert self.summary().document_frequency("nonexistent") == 0

    def test_word_statistics_memoized(self):
        s = self.summary()
        stats = s.word_statistics()
        assert stats["algorithm"] == (100, 53)
        assert s.word_statistics() is stats  # built once, reused
        # The memo backs the field-less fast paths.
        assert s.document_frequency("algorithm") == 53

    def test_word_statistics_invalidated_when_sections_swap(self):
        s = self.summary()
        assert "datos" in s.word_statistics()
        object.__setattr__(s, "sections", s.sections[:1])
        fresh = s.word_statistics()
        assert "datos" not in fresh
        assert s.document_frequency("datos") == 0

    def test_a_word_runs_to_the_last_quote_of_its_line(self):
        """Counts hold no quote: a word holding one (``rock"n``) decodes,
        and is written back as it came."""
        text = '@SContentSummary{\nTermDocFreq{12}: "rock"n" 3 2\n}\n'
        summary = SContentSummary.from_soif(parse_soif(text))
        assert summary.sections[0].entries == (SummaryEntryLine('rock"n', 3, 2),)
        assert 'TermDocFreq{12}: "rock"n" 3 2\n' in summary.to_soif().dump()

    def test_only_the_declared_statistics_are_written(self):
        """A summary declaring df alone may still hold postings in its
        entries; they must not be written where a reader expects the df."""
        df_only = SContentSummary(
            num_docs=1,
            sections=(SummarySection("title", "es", (SummaryEntryLine("datos", 59, 13),)),),
            has_postings=False,
        )
        assert SContentSummary.from_soif(parse_soif(df_only.to_soif().dump())).document_frequency(
            "datos"
        ) == 13

    def test_decode_tallies_the_statistics_without_a_word_index(self):
        s = SContentSummary.from_soif(parse_soif(self.summary().to_soif().dump()))
        assert s.word_statistics() == {
            "algorithm": (100, 53), "analysis": (50, 23), "algoritmo": (23, 11), "datos": (59, 12)
        }
        assert s.total_word_mass() == 232


class TestSResource:
    def test_round_trip_and_example12(self):
        resource = SResource(
            source_list=(
                ("Source-1", "ftp://www.stanford.edu/source_1"),
                ("Source-2", "ftp://www.stanford.edu/source_2"),
            )
        )
        text = resource.to_soif().dump()
        assert "Source-1 ftp://www.stanford.edu/source_1" in text
        assert SResource.from_soif(parse_soif(text)) == resource

    def test_lookup_helpers(self):
        resource = SResource(source_list=(("S1", "http://u1"),))
        assert resource.source_ids() == ["S1"]
        assert resource.metadata_url("S1") == "http://u1"
        with pytest.raises(KeyError):
            resource.metadata_url("S9")

    def test_malformed_source_list_rejected(self):
        text = "@SResource{\nSourceList{9}: one-field\n}\n"
        with pytest.raises(SoifSyntaxError):
            SResource.from_soif(parse_soif(text))


class TestMalformedValuesAreTyped:
    """A non-numeric value is a ``SoifSyntaxError`` naming the attribute,
    never a bare ``ValueError`` (which a harvest would not survive)."""

    @pytest.mark.parametrize(
        "text, attribute",
        [
            ("@SMetaAttributes{\nScoreRange{8}: low high\n}\n", "ScoreRange"),
            ("@SMetaAttributes{\nScoreRange{7}: 0.0 1,0\n}\n", "ScoreRange"),
        ],
    )
    def test_meta_attributes(self, text, attribute):
        with pytest.raises(SoifSyntaxError, match=attribute):
            SMetaAttributes.from_soif(parse_soif(text))

    @pytest.mark.parametrize(
        "text, attribute",
        [
            ("@SContentSummary{\nNumDocs{4}: many\n}\n", "NumDocs"),
            ('@SContentSummary{\nTermDocFreq{13}: "word" ten 3\n}\n', "TermDocFreq"),
            ('@SContentSummary{\nTermDocFreq{11}: "word" 10 x\n}\n', "TermDocFreq"),
            ('@SContentSummary{\nTermDocFreq{8}: "word 10\n}\n', "TermDocFreq"),
            (
                "@SContentSummary{\nStatisticsIncluded{2}: df\n"
                'TermDocFreq{6}: "word"\n}\n',
                "TermDocFreq",
            ),
            (
                "@SContentSummary{\nStatisticsIncluded{8}: postings\n"
                'TermDocFreq{8}: "word" x\n}\n',
                "TermDocFreq",
            ),
            # A count is ASCII decimal digits, not whatever int() takes.
            ('@SContentSummary{\nTermDocFreq{9}: "w" -3 -1\n}\n', "TermDocFreq"),
            ('@SContentSummary{\nTermDocFreq{11}: "w" 1_000 2\n}\n', "TermDocFreq"),
            ('@SContentSummary{\nTermDocFreq{8}: "w" +3 2\n}\n', "TermDocFreq"),
            ('@SContentSummary{\nTermDocFreq{9}: "w" \uff13 2\n}\n', "TermDocFreq"),
            (
                "@SContentSummary{\nStatisticsIncluded{8}: postings\n"
                'TermDocFreq{7}: "w" -3\n}\n',
                "TermDocFreq",
            ),
            ("@SContentSummary{\nNumDocs{2}: -5\n}\n", "NumDocs"),
            ("@SContentSummary{\nNumDocs{2}: +5\n}\n", "NumDocs"),
            ("@SContentSummary{\nNumDocs{3}: 1_0\n}\n", "NumDocs"),
            ("@SContentSummary{\nNumDocs{3}: \uff15\n}\n", "NumDocs"),
        ],
    )
    def test_content_summary(self, text, attribute):
        with pytest.raises(SoifSyntaxError, match=attribute):
            SContentSummary.from_soif(parse_soif(text))

    @pytest.mark.parametrize(
        "text",
        [
            "@SSampleResults{\nQueryScores{14}: databases: 0,9\n}\n",
            "@SSampleResults{\nQueryScores{18}: databases: 0.9 top\n}\n",
            "@SSampleResults{\nQueryScores{13}: databases 0.9\n}\n",
        ],
    )
    def test_sample_results(self, text):
        with pytest.raises(SoifSyntaxError, match="QueryScores"):
            SampleResults.from_soif(parse_soif(text))

    def test_infinities_and_defaults_still_parse(self):
        parsed = SMetaAttributes.from_soif(
            parse_soif("@SMetaAttributes{\nScoreRange{9}: 0.0 +Inf\n}\n")
        )
        assert parsed.score_range == (0.0, math.inf)
        empty = SContentSummary.from_soif(parse_soif("@SContentSummary{\n}\n"))
        assert empty.num_docs == 0
