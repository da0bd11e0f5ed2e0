"""The ``python -m repro`` command-line interface."""

import pathlib

import pytest

from repro.__main__ import main


class TestParseCommand:
    def test_canonical_and_pqf(self, capsys):
        code = main(["parse", '(author "Ullman")'])
        assert code == 0
        out = capsys.readouterr().out
        assert '(author "Ullman")' in out
        assert "@attr 1=1003" in out

    def test_empty_expression_fails(self, capsys):
        assert main(["parse", "   "]) == 2


class TestSearchCommand:
    def test_batch_search_prints_rank(self, capsys):
        code = main(["--seed", "3", "search", '(body-of-text "databases")'])
        assert code == 0
        out = capsys.readouterr().out
        assert "selected sources:" in out
        assert "http://" in out

    def test_stream_prints_emissions_then_final_rank(self, capsys, fresh_registry):
        code = main(
            ["--seed", "3", "search", '(body-of-text "databases")', "--stream"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # One progress line per source, with its per-emission latency.
        assert out.count(" ms] #") >= 2
        assert "pending=" in out
        assert "final after" in out
        assert "http://" in out

    def test_stream_final_rank_matches_batch(self, capsys, fresh_registry):
        assert main(["--seed", "3", "search", '(body-of-text "databases")']) == 0
        batch_out = capsys.readouterr().out
        batch_rank = [
            line for line in batch_out.splitlines() if line.lstrip().startswith("0.")
        ]
        assert (
            main(["--seed", "3", "search", '(body-of-text "databases")', "--stream"])
            == 0
        )
        stream_out = capsys.readouterr().out
        stream_rank = [
            line for line in stream_out.splitlines() if line.lstrip().startswith("0.")
        ]
        assert batch_rank == stream_rank

    def test_empty_expression_fails(self, capsys):
        assert main(["search", "   "]) == 2

    def test_without_an_expression_runs_the_demo_query(self, capsys):
        assert main(["--seed", "3", "search", "--limit", "5", "--sources", "2"]) == 0
        out = capsys.readouterr().out
        assert "selected sources:" in out
        assert "http://" in out

    def test_sources_flag_bounds_the_selection(self, capsys):
        code = main(
            ["--seed", "3", "search", '(body-of-text "databases")', "--sources", "1"]
        )
        assert code == 0
        (selected,) = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("selected sources:")
        ]
        assert "," not in selected

    def test_filter_flag_treats_the_expression_as_a_filter(self, capsys):
        code = main(
            [
                "--seed",
                "3",
                "search",
                '(date-last-modified > "1994-01-01")',
                "--filter",
                "--limit",
                "3",
            ]
        )
        assert code == 0
        assert "selected sources:" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["demo", "query"])
    def test_the_folded_subcommands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command])
        assert "invalid choice" in capsys.readouterr().err


class TestSelectCommand:
    def test_ranks_and_marks_selected(self, capsys):
        code = main(["--seed", "3", "select", "distributed databases", "-k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "selector: cori" in out
        assert "4 harvested" in out
        # The goodness table lists every source, selected ones starred.
        assert out.count("*") == 2
        assert "Source-DB" in out

    def test_selector_choice(self, capsys):
        code = main(["--seed", "3", "select", "databases", "--selector", "bgloss"])
        assert code == 0
        assert "selector: bgloss" in capsys.readouterr().out

    def test_empty_query_fails(self, capsys):
        assert main(["select", "   "]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "databases", "--selector", "no-such-selector"],
            # A global permutation cannot be evaluated shard by shard.
            ["broker", "--terms", "databases", "--selector", "random"],
        ],
    )
    def test_selector_outside_the_registry_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestExperimentCommand:
    def test_e4_prints_the_committed_table(self, capsys):
        committed = pathlib.Path(__file__).parents[1] / "benchmarks" / "results"
        # Ids are matched whatever their case; --seed is not part of a table.
        assert main(["--seed", "3", "experiment", "e4"]) == 0
        assert capsys.readouterr().out == (committed / "E4_summary_size.txt").read_text()

    def test_unknown_id(self, capsys):
        assert main(["experiment", "E99"]) == 2
        assert "unknown experiment: E99" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_once(self, capsys):
        assert main(["serve", "--port", "0", "--once"]) == 0
        out = capsys.readouterr().out
        assert "resource:" in out
        assert "http://127.0.0.1:" in out


class TestMetricsCommand:
    def test_metrics_prints_prometheus_text(self, capsys, fresh_registry):
        assert main(["--seed", "3", "metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE source_requests_total counter" in out
        assert "# TYPE metasearch_phase_ms histogram" in out
        assert 'metasearch_searches_total{result="wire"}' in out

    def test_metrics_restores_the_process_registry(self, capsys, fresh_registry):
        from repro.observability import get_registry

        main(["--seed", "3", "metrics"])
        assert get_registry() is fresh_registry
        # The command ran on its own registry; ours stayed clean.
        assert fresh_registry.families() == []


class TestTraceCommand:
    def test_trace_renders_timeline(self, capsys, fresh_registry):
        assert main(["--seed", "3", "trace"]) == 0
        out = capsys.readouterr().out
        assert "discover" in out
        assert "search" in out
        assert "per-source counters" in out

    def test_trace_writes_chrome_and_ndjson(self, tmp_path, capsys, fresh_registry):
        import json

        chrome = tmp_path / "trace.json"
        ndjson = tmp_path / "events.ndjson"
        code = main(
            [
                "--seed",
                "3",
                "trace",
                '(body-of-text "databases")',
                "--chrome",
                str(chrome),
                "--ndjson",
                str(ndjson),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert str(chrome) in out
        assert str(ndjson) in out
        payload = json.loads(chrome.read_text())
        names = {event["name"] for event in payload["traceEvents"]}
        assert "discover" in names
        assert "search" in names
        assert any(name.startswith("query") for name in names)
        lines = ndjson.read_text().splitlines()
        assert lines
        for line in lines:
            assert json.loads(line)["trace_id"]


class TestPlanCommand:
    def test_plan_renders(self, capsys):
        assert main(["--seed", "3", "plan", '(body-of-text "patient")']) == 0
        out = capsys.readouterr().out
        assert "plan for terms" in out
        assert "->" in out

    def test_plan_empty_expression(self, capsys):
        assert main(["plan", "  "]) == 2


class TestBrokerCommand:
    def test_prints_routing_table_and_shard_stats(self, capsys, fresh_registry):
        code = main(["--seed", "3", "broker", "--sources", "60", "--leaves", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "root over 3 leaves" in out
        assert "leaf-00" in out and "leaf-02" in out
        assert "sources" in out

    def test_demo_selection_with_terms(self, capsys, fresh_registry):
        code = main(
            ["--seed", "3", "broker", "--sources", "40", "--leaves", "2",
             "--terms", "databases", "-k", "3", "--selector", "cori"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "selection: cori over databases, top 3" in out
        assert "of 2 leaves)" in out
        assert out.count("(leaf leaf-0") == 3  # each pick with its owning leaf


class TestCheckpointCommand:
    def test_save_inspect_load_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["--seed", "3", "checkpoint", "save", store, "--size", "30"]) == 0
        out = capsys.readouterr().out
        assert "checkpointed 30 documents" in out
        assert "MANIFEST.json" in out

        assert main(["checkpoint", "inspect", store]) == 0
        out = capsys.readouterr().out
        assert "generation:  1" in out
        assert "seg-000000" in out

        assert main(["checkpoint", "load", store]) == 0
        out = capsys.readouterr().out
        assert "warm start" in out
        assert "documents:  30" in out

    def test_save_with_merge_compacts(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(
            ["--seed", "3", "checkpoint", "save", store, "--size", "20", "--merge"]
        )
        assert code == 0
        assert main(["checkpoint", "inspect", store]) == 0

    def test_inspect_missing_manifest_fails(self, tmp_path, capsys):
        assert main(["checkpoint", "inspect", str(tmp_path)]) == 2
        assert "no manifest" in capsys.readouterr().err

    def test_load_missing_store_fails(self, tmp_path, capsys):
        assert main(["checkpoint", "load", str(tmp_path / "absent")]) == 2
        assert "cannot open" in capsys.readouterr().err
