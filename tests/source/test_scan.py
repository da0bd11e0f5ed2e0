"""The Scan term-browse extension."""

import pytest

from repro.source.scan import ScanEntry, ScanRequest, ScanResponse
from repro.starts.errors import SoifSyntaxError
from repro.starts.soif import parse_soif


class TestScanAtSource:
    def test_alphabetic_slice_from_start_term(self, source1):
        response = source1.scan("body-of-text", "d", count=5)
        words = [entry.word for entry in response.entries]
        assert words == sorted(words)
        assert all(word >= "d" for word in words)
        assert len(words) == 5

    def test_statistics_carried(self, source1):
        response = source1.scan("body-of-text", "databases", count=1)
        entry = response.entries[0]
        assert entry.word == "databases"
        assert entry.postings >= entry.document_frequency >= 1

    def test_field_aliases_resolve(self, source1):
        response = source1.scan("Title", "a", count=3)
        assert response.field == "title"

    def test_empty_beyond_vocabulary(self, source1):
        assert source1.scan("body-of-text", "zzzz").entries == ()

    def test_unknown_field_is_empty(self, source1):
        assert source1.scan("abstract", "").entries == ()

    def test_start_of_vocabulary(self, source1):
        response = source1.scan("author", "", count=100)
        assert response.entries  # full author vocabulary


class TestScanWire:
    def test_request_round_trip(self):
        request = ScanRequest("title", "data", 25)
        parsed = ScanRequest.from_soif(parse_soif(request.to_soif().dump()))
        assert parsed == request

    def test_response_round_trip(self):
        response = ScanResponse(
            "title",
            (ScanEntry("algorithm", 100, 53), ScanEntry("analysis", 50, 23)),
        )
        assert ScanResponse.parse(response.to_soif().dump()) == response

    def test_malformed_request_count_is_typed(self):
        with pytest.raises(SoifSyntaxError, match="Count"):
            ScanRequest.from_soif(parse_soif("@SScanRequest{\nCount{3}: ten\n}\n"))
        defaulted = ScanRequest.from_soif(parse_soif("@SScanRequest{\n}\n"))
        assert defaulted == ScanRequest("any", "", 10)

    @pytest.mark.parametrize(
        "entries",
        ['"word" ten 3', '"word" 10 x', '"word 10 3', 'word 10 3', '"word" 10'],
    )
    def test_malformed_response_entries_are_typed(self, entries):
        text = f"@SScanResponse{{\nEntries{{{len(entries)}}}: {entries}\n}}\n"
        with pytest.raises(SoifSyntaxError, match="Entries"):
            ScanResponse.parse(text)

    def test_scan_over_the_wire(self, source1):
        from repro.transport import SimulatedInternet, StartsClient, publish_source

        internet = SimulatedInternet()
        publish_source(internet, source1)
        client = StartsClient(internet)
        response = client.scan(
            f"{source1.base_url}/scan", "body-of-text", "data", count=4
        )
        assert response == source1.scan("body-of-text", "data", count=4)
