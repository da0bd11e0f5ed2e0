"""File-based blob export and file:// harvesting."""

from repro.metasearch import Metasearcher
from repro.starts import SContentSummary, SMetaAttributes, SResource, parse_soif
from repro.transport import (
    SimulatedInternet,
    export_resource,
    export_source_blobs,
    register_file_url,
)


class TestSourceExport:
    def test_three_blobs_written(self, source1, tmp_path):
        written = export_source_blobs(source1, tmp_path)
        assert set(written) == {"metadata", "summary", "sample"}
        for path in written.values():
            assert path.exists() and path.stat().st_size > 0

    def test_blobs_parse_back(self, source1, tmp_path):
        written = export_source_blobs(source1, tmp_path)
        metadata = SMetaAttributes.from_soif(
            parse_soif(written["metadata"].read_text())
        )
        assert metadata == source1.metadata()
        summary = SContentSummary.from_soif(
            parse_soif(written["summary"].read_text())
        )
        assert summary.num_docs == source1.document_count

    def test_re_export_overwrites(self, source1, tmp_path):
        export_source_blobs(source1, tmp_path)
        written = export_source_blobs(source1, tmp_path)
        assert written["metadata"].exists()


class TestResourceExport:
    def test_layout(self, paper_resource, tmp_path):
        written = export_resource(paper_resource, tmp_path)
        assert "resource" in written
        assert (tmp_path / "Source-1" / "meta.soif").exists()
        assert (tmp_path / "Source-2" / "cont_sum.txt").exists()

    def test_source_list_points_to_files(self, paper_resource, tmp_path):
        written = export_resource(paper_resource, tmp_path)
        resource = SResource.from_soif(parse_soif(written["resource"].read_text()))
        for source_id in ("Source-1", "Source-2"):
            assert resource.metadata_url(source_id).startswith("file://")


class TestFileUrls:
    def test_register_and_fetch(self, source1, tmp_path):
        written = export_source_blobs(source1, tmp_path)
        internet = SimulatedInternet()
        url = register_file_url(internet, written["summary"])
        assert url.startswith("file://")
        assert internet.perform(url)[0] == written["summary"].read_bytes()

    def test_lazy_read_sees_re_exports(self, source1, tmp_path):
        written = export_source_blobs(source1, tmp_path)
        internet = SimulatedInternet()
        url = register_file_url(internet, written["summary"])
        first = internet.perform(url)[0]
        written["summary"].write_text("@SContentSummary{\nNumDocs{1}: 0\n}\n")
        assert internet.perform(url)[0] != first

    def test_discovery_from_disk(self, paper_resource, tmp_path):
        """A metasearcher can harvest a resource exported to files."""
        written = export_resource(paper_resource, tmp_path)
        internet = SimulatedInternet()
        resource_url = register_file_url(internet, written["resource"])
        for key, path in written.items():
            if key != "resource":
                register_file_url(internet, path)

        # The on-disk SResource points to file:// metadata; those
        # metadata blobs point to http:// query/summary URLs, so only
        # metadata harvesting happens from disk.  Register the http
        # endpoints too for the summary/sample fetches.
        from repro.transport import publish_resource

        publish_resource(internet, paper_resource, "http://stanford.example.org")

        searcher = Metasearcher(internet, [resource_url])
        known = searcher.refresh()
        assert sorted(k.source_id for k in known) == ["Source-1", "Source-2"]
