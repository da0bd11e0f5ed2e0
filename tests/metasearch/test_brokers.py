"""Summary aggregation: what a leaf broker publishes for its shard."""

from repro.starts.metadata import (
    SContentSummary,
    SummaryEntryLine,
    SummarySection,
    merge_summaries,
)


def summary(num_docs, words):
    entries = tuple(
        SummaryEntryLine(word, postings, df)
        for word, (postings, df) in sorted(words.items())
    )
    return SContentSummary(
        num_docs=num_docs,
        sections=(SummarySection("body-of-text", "en", entries),),
    )


class TestMergeSummaries:
    def test_statistics_add(self):
        merged = merge_summaries(
            [
                summary(10, {"databases": (30, 8)}),
                summary(20, {"databases": (10, 5), "networks": (7, 3)}),
            ]
        )
        assert merged.num_docs == 30
        assert merged.word_statistics()["databases"] == (40, 13)
        assert merged.document_frequency("networks") == 3

    def test_sections_keep_field_language_grouping(self):
        english = summary(5, {"alpha": (1, 1)})
        spanish = SContentSummary(
            num_docs=5,
            sections=(
                SummarySection(
                    "body-of-text", "es", (SummaryEntryLine("datos", 2, 2),)
                ),
            ),
        )
        merged = merge_summaries([english, spanish])
        languages = {section.language for section in merged.sections}
        assert languages == {"en", "es"}

    def test_empty_input(self):
        assert merge_summaries([]).num_docs == 0

    def test_header_flags_are_weakest_claims(self):
        stemmed = SContentSummary(num_docs=1, stemming=True)
        unstemmed = SContentSummary(num_docs=1, stemming=False)
        assert merge_summaries([stemmed, unstemmed]).stemming is False
        assert merge_summaries([stemmed, stemmed]).stemming is True

    def test_empty_summary_does_not_weaken_flags(self):
        """Regression: a summary with no sections and no documents
        describes nothing, so its default flags must not drag the merge
        down to the weakest defaults."""
        stemmed = summary(5, {"alpha": (3, 2)})
        stemmed = SContentSummary(
            num_docs=stemmed.num_docs,
            sections=stemmed.sections,
            stemming=True,
            case_sensitive=True,
        )
        empty = SContentSummary(num_docs=0)
        merged = merge_summaries([stemmed, empty])
        assert merged.stemming is True
        assert merged.case_sensitive is True
        assert merged.num_docs == 5

    def test_zero_doc_sectioned_summary_still_claims(self):
        """A source with sections but num_docs == 0 is making claims
        about its (empty) list and must participate in flag weakening."""
        stemmed = SContentSummary(
            num_docs=1,
            stemming=True,
            sections=(SummarySection("body-of-text", "en", ()),),
        )
        zero_docs = SContentSummary(
            num_docs=0,
            stemming=False,
            sections=(SummarySection("body-of-text", "en", ()),),
        )
        assert merge_summaries([stemmed, zero_docs]).stemming is False

    def test_all_empty_inputs_yield_defaults(self):
        empty = SContentSummary(num_docs=0)
        merged = merge_summaries([empty, empty])
        assert merged.num_docs == 0
        assert merged.sections == ()
        defaults = SContentSummary(num_docs=0)
        assert merged.stemming == defaults.stemming
        assert merged.has_postings == defaults.has_postings

    def test_statistics_availability_merges_as_weakest_claim(self):
        """Regression: a child without postings (or df) statistics must
        mark the merged summary as lacking them too."""
        rich = summary(5, {"alpha": (3, 2)})
        poor = SContentSummary(
            num_docs=5,
            sections=summary(5, {"beta": (2, 1)}).sections,
            has_postings=False,
            has_document_frequencies=False,
        )
        merged = merge_summaries([rich, poor])
        assert merged.has_postings is False
        assert merged.has_document_frequencies is False
        both_rich = merge_summaries([rich, summary(2, {"gamma": (1, 1)})])
        assert both_rich.has_postings is True
        assert both_rich.has_document_frequencies is True

    def test_empty_summary_does_not_strengthen_availability(self):
        """The empty summary's has_postings=True default must not
        override claiming children either way — only claimants count."""
        poor = SContentSummary(
            num_docs=3,
            sections=summary(3, {"alpha": (1, 1)}).sections,
            has_postings=False,
        )
        empty = SContentSummary(num_docs=0)
        assert merge_summaries([poor, empty]).has_postings is False

    def test_merge_equals_union_summary(self):
        """Aggregation is exact: merging per-source summaries equals the
        summary of the union collection."""
        from repro.corpus import source1_documents, source2_documents
        from repro.source import StartsSource

        separate = [
            StartsSource("A", source1_documents()).content_summary(),
            StartsSource("B", source2_documents()).content_summary(),
        ]
        union = StartsSource(
            "AB", source1_documents() + source2_documents()
        ).content_summary()
        merged = merge_summaries(separate)
        assert merged.num_docs == union.num_docs
        for word in ("databases", "distributed", "ullman"):
            assert merged.word_statistics()[word] == union.word_statistics()[word]

