"""Remaining corners: small behaviours the focused suites skip."""

from repro.corpus import source1_documents


class TestZdsrRankedActualQuery:
    def test_actual_pqf_for_ranked_search(self, source1):
        from repro.zdsr import ZdsrGateway

        gateway = ZdsrGateway(source1)
        results = gateway.search_pqf(
            '@or @attr 1=1010 "distributed" @attr 1=1010 "databases"', ranked=True
        )
        actual = gateway.actual_pqf(results)
        assert actual is not None
        assert actual.startswith("@or ")


class TestFederationHostProfiles:
    def test_slow_and_charging_sources_configured(self):
        from repro.experiments import FederationSpec, build_federation

        federation = build_federation(
            FederationSpec(n_sources=5, docs_per_source=10, n_queries=2, seed=2)
        )
        # Index 3 charges by default; its cost is recorded for the
        # cost-aware selector.
        assert federation.costs == {"Exp-03": 5.0}
        # Index 2 is the slow host: fetching from it is visibly slower.
        federation.internet.reset_log()
        slow_source = federation.sources["Exp-02"]
        fast_source = federation.sources["Exp-00"]
        federation.internet.perform(f"{slow_source.base_url}/meta")
        slow = federation.internet.total_latency_ms()
        federation.internet.reset_log()
        federation.internet.perform(f"{fast_source.base_url}/meta")
        fast = federation.internet.total_latency_ms()
        assert slow > fast * 5


class TestEngineFieldConstants:
    def test_text_fields_disjoint_from_metadata_fields(self):
        from repro.engine import fields as F

        assert not set(F.TEXT_FIELDS) & set(F.METADATA_FIELDS)
        assert not set(F.TEXT_FIELDS) & set(F.DATE_FIELDS)

    def test_any_is_not_a_concrete_field(self):
        from repro.engine import fields as F

        assert F.ANY not in F.TEXT_FIELDS


class TestSourceRepr:
    def test_repr_carries_identity(self, source1):
        text = repr(source1)
        assert "Source-1" in text
        assert "3 docs" in text


class TestQuickFederationSurface:
    def test_returns_usable_handles(self):
        from repro import Metasearcher, quick_federation

        internet, resource_url = quick_federation(seed=3, docs_per_source=10)
        assert resource_url.endswith("/resource")
        searcher = Metasearcher(internet, [resource_url])
        assert len(searcher.refresh()) == 4


class TestExplainRecordForSaltonSoft:
    def test_pivoted_vendor_explains(self):
        from repro.vendors import build_vendor_source
        from repro.zdsr import ZdsrGateway

        source = build_vendor_source("SaltonSoft", "Salton-1", source1_documents())
        record = ZdsrGateway(source).explain()
        assert record.ranking_algorithm_id == "Salton-2"
        assert record.supports_ranked_retrieval
