"""The /metrics endpoint on both transports, golden-parsed."""

import urllib.request

from repro.metasearch import Metasearcher
from repro.starts import SQuery, parse_expression
from repro.transport import StartsClient, StartsHttpServer, publish_metrics


def _parse_prometheus(text: str) -> dict[str, dict[str, float]]:
    """Exposition text → {family: {sample line head: value}}.

    Raises on any line that does not fit the 0.0.4 text format — this
    is the golden parse the acceptance criteria require.
    """
    families: dict[str, dict[str, float]] = {}
    types: dict[str, str] = {}
    for line in text.splitlines():
        if not line:
            raise AssertionError("blank line in exposition")
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            name, kind = line[len("# TYPE ") :].split(" ")
            assert kind in ("counter", "gauge", "histogram"), kind
            types[name] = kind
            families.setdefault(name, {})
            continue
        assert not line.startswith("#"), line
        head, value = line.rsplit(" ", 1)
        name = head.split("{", 1)[0]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = name[: -len(suffix)] if name.endswith(suffix) else None
            if stripped and stripped in types:
                assert types[stripped] == "histogram", name
                base = stripped
        assert base in types, f"sample {name} before its # TYPE"
        families[base][head] = float(value)
    return families


def _run_searches(internet, resource_url: str) -> None:
    searcher = Metasearcher(internet, [resource_url])
    searcher.refresh()
    for text in ("databases", "networking"):
        searcher.search(
            SQuery(
                ranking_expression=parse_expression(f'(body-of-text "{text}")'),
                max_number_documents=5,
            ),
            k_sources=2,
        )


class TestSimulatedEndpoint:
    def test_publish_and_scrape_metrics(self, small_federation, fresh_registry):
        internet, resource_url, _ = small_federation
        metrics_url = publish_metrics(internet, "http://metrics.example.org")
        assert metrics_url == "http://metrics.example.org/metrics"
        _run_searches(internet, resource_url)
        text = StartsClient(internet).fetch_metrics(metrics_url)
        families = _parse_prometheus(text)
        # The engines' families, with real traffic: two searches over two
        # sources each.  The per-source wire facts and how each search
        # ended are on the searches' own records, not here.
        evaluations = families["engine_query_eval_ms"]
        assert evaluations["engine_query_eval_ms_count"] >= 4
        assert "engine_postings_walked_total" in families
        assert not {
            name for name in families if name.startswith(("source_", "cache_"))
        }
        assert "metasearch_searches_total" not in families

    def test_scrape_reflects_live_state(self, small_federation, fresh_registry):
        internet, resource_url, _ = small_federation
        metrics_url = publish_metrics(internet, "http://metrics.example.org")
        client = StartsClient(internet)
        assert client.fetch_metrics(metrics_url) == ""  # nothing recorded yet
        _run_searches(internet, resource_url)
        assert "engine_query_eval_ms" in client.fetch_metrics(metrics_url)

    def test_explicit_registry_pins_the_exposition(
        self, small_federation, fresh_registry
    ):
        from repro.observability import MetricsRegistry

        internet, resource_url, _ = small_federation
        pinned = MetricsRegistry()
        pinned.counter("pinned_total", "Pinned.").inc()
        url = publish_metrics(
            internet, "http://pinned.example.org", registry=pinned
        )
        _run_searches(internet, resource_url)  # records to the global one
        text = StartsClient(internet).fetch_metrics(url)
        assert "pinned_total 1" in text
        assert "engine_query_eval_ms" not in text


class TestHttpEndpoint:
    def test_real_http_metrics_endpoint(self, paper_resource, fresh_registry):
        fresh_registry.counter(
            "demo_requests_total", "Wire requests.", labels=("source_id", "outcome")
        ).labels(source_id="Source-1", outcome="ok").inc(4)
        with StartsHttpServer(paper_resource) as server:
            with urllib.request.urlopen(f"{server.base_url}/metrics") as response:
                assert response.status == 200
                content_type = response.headers["Content-Type"]
                body = response.read().decode("utf-8")
        assert "version=0.0.4" in content_type
        families = _parse_prometheus(body)
        assert families["demo_requests_total"][
            'demo_requests_total{source_id="Source-1",outcome="ok"}'
        ] == 4.0
