"""Resources: Figure 1's multi-source evaluation + duplicate elimination."""

import pytest

from repro.corpus import source1_documents, source2_documents, ullman_dood_document
from repro.engine.documents import Document
from repro.resource import Resource
from repro.source import StartsSource
from repro.starts import SQuery, parse_expression
from repro.starts.errors import UnknownSourceError
from repro.starts.query import SortKey


def ranking_query(**overrides):
    defaults = dict(
        ranking_expression=parse_expression(
            'list((body-of-text "distributed") (body-of-text "databases"))'
        ),
    )
    defaults.update(overrides)
    return SQuery(**defaults)


class TestBasics:
    def test_source_registry(self, paper_resource):
        assert paper_resource.source_ids() == ["Source-1", "Source-2"]
        assert "Source-1" in paper_resource
        assert len(paper_resource) == 2

    def test_duplicate_source_id_rejected(self, source1):
        resource = Resource("R", [source1])
        with pytest.raises(ValueError):
            resource.add_source(StartsSource("Source-1", []))

    def test_unknown_source_raises(self, paper_resource):
        with pytest.raises(UnknownSourceError):
            paper_resource.source("Source-99")
        with pytest.raises(UnknownSourceError):
            paper_resource.search("Source-99", ranking_query())


class TestFigure1Routing:
    def test_single_source_query_untouched(self, paper_resource):
        direct = paper_resource.source("Source-1").search(ranking_query())
        via_resource = paper_resource.search("Source-1", ranking_query())
        assert direct == via_resource

    def test_sources_attribute_fans_out(self, paper_resource):
        query = ranking_query().with_sources("Source-2")
        results = paper_resource.search("Source-1", query)
        assert set(results.sources) == {"Source-1", "Source-2"}
        linkage_hosts = {doc.linkage.split("/")[2] for doc in results.documents}
        assert len(linkage_hosts) > 1  # documents from both sources

    def test_unknown_extra_source_raises(self, paper_resource):
        query = ranking_query().with_sources("Source-99")
        with pytest.raises(UnknownSourceError):
            paper_resource.search("Source-1", query)

    def test_merged_results_respect_max_documents(self, paper_resource):
        query = ranking_query(max_number_documents=2).with_sources("Source-2")
        results = paper_resource.search("Source-1", query)
        assert len(results.documents) <= 2

    def test_merged_results_sorted_by_score(self, paper_resource):
        query = ranking_query().with_sources("Source-2")
        scores = [
            doc.raw_score
            for doc in paper_resource.search("Source-1", query).documents
        ]
        assert scores == sorted(scores, reverse=True)


class TestMergedSortOrder:
    """Naming a second source keeps the query's SortByFields."""

    @pytest.fixture
    def titled_resource(self):
        def document(title, body):
            return Document(f"http://x/{title}", {"title": title, "body-of-text": body})

        first = StartsSource(
            "S-1", [document("zeta", "data data"), document("alpha", "data x y")]
        )
        second = StartsSource("S-2", [document("mid", "data data data")])
        return Resource("Titled", [first, second])

    @staticmethod
    def titles(resource, **overrides):
        query = SQuery(
            ranking_expression=parse_expression('(body-of-text "data")'),
            sort_keys=(SortKey("title", descending=False),),
            **overrides,
        )
        answer = resource.search("S-1", query)
        return [document.linkage.rpartition("/")[2] for document in answer.documents]

    def test_entry_source_alone(self, titled_resource):
        assert self.titles(titled_resource) == ["alpha", "zeta"]

    def test_with_a_second_source(self, titled_resource):
        both = self.titles(titled_resource, sources=("S-2",))
        assert both == ["alpha", "mid", "zeta"]

    def test_truncated_in_sort_order(self, titled_resource):
        one = self.titles(titled_resource, sources=("S-2",), max_number_documents=1)
        assert one == ["alpha"]

    def test_on_a_field_not_asked_back(self, titled_resource):
        unasked = self.titles(
            titled_resource, sources=("S-2",), answer_fields=("author",)
        )
        assert unasked == ["alpha", "mid", "zeta"]


class TestDuplicateElimination:
    @pytest.fixture
    def overlapping_resource(self):
        """Source-A and Source-B both hold the Ullman document."""
        a = StartsSource("Source-A", source1_documents())
        b = StartsSource("Source-B", [ullman_dood_document(), *source2_documents()])
        return Resource("Overlap", [a, b])

    def test_duplicate_appears_once(self, overlapping_resource):
        query = ranking_query().with_sources("Source-B")
        results = overlapping_resource.search("Source-A", query)
        ullman = [d for d in results.documents if "ullman" in d.linkage]
        assert len(ullman) == 1

    def test_duplicate_lists_both_sources(self, overlapping_resource):
        """The paper: the resource "can eliminate duplicate documents
        from the query result"; the survivor names every source."""
        query = ranking_query().with_sources("Source-B")
        results = overlapping_resource.search("Source-A", query)
        ullman = next(d for d in results.documents if "ullman" in d.linkage)
        assert set(ullman.sources) == {"Source-A", "Source-B"}

    def test_duplicate_keeps_best_score(self, overlapping_resource):
        query = ranking_query().with_sources("Source-B")
        merged = overlapping_resource.search("Source-A", query)
        ullman_merged = next(d for d in merged.documents if "ullman" in d.linkage)
        a_score = next(
            d.raw_score
            for d in overlapping_resource.source("Source-A").search(query).documents
            if "ullman" in d.linkage
        )
        b_score = next(
            d.raw_score
            for d in overlapping_resource.source("Source-B").search(query).documents
            if "ullman" in d.linkage
        )
        assert ullman_merged.raw_score == max(a_score, b_score)


class TestDescribe:
    def test_describe_lists_all_sources(self, paper_resource):
        resource_obj = paper_resource.describe()
        assert resource_obj.source_ids() == ["Source-1", "Source-2"]
        assert resource_obj.metadata_url("Source-1").endswith("/meta")
