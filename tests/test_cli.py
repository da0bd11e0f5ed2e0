"""The ``python -m repro`` command-line interface."""

import json
import pathlib
import re

import pytest

from repro.__main__ import main

REPO = pathlib.Path(__file__).parents[1]


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

    @pytest.mark.parametrize(
        "command", ["demo", "query", "plan", "trace", "metrics", "querylog", "slo"]
    )
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

    def test_a_negative_k_fails(self, capsys):
        assert main(["select", "distributed databases", "-k", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k must be >= 0, got -1" in captured.err

    @pytest.mark.parametrize(
        "argv", [["select", "databases", "--selector", "no-such-selector"]]
    )
    def test_selector_outside_the_registry_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestExperimentCommand:
    def test_e4_prints_the_committed_table(self, capsys):
        committed = REPO / "benchmarks" / "results"
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


class TestExplainCommand:
    def test_demo_query_prints_every_section(self, capsys, fresh_registry):
        assert main(["--seed", "3", "explain"]) == 0
        out = capsys.readouterr().out
        for section in (
            "selector: vGlOSS-Max   terms: distributed databases",
            ": ok after 1 request(s)",
            "translation: lossless",
            "actual ranking: list(",
            "discover",
            "search",
            "      serve:query:",  # a server-side span, under its query:<id>
            "status=miss",  # the result-cache decision, one event
            'query log: {"cache_hits": 0',
        ):
            assert section in out, section

    def test_sources_flag_bounds_the_selection(self, capsys, fresh_registry):
        assert main(["--seed", "3", "explain", "--sources", "1"]) == 0
        out = capsys.readouterr().out
        assert "top 1 requested" in out
        assert out.count("  query:") == 1

    def test_output_is_deterministic_apart_from_the_wall_clock(
        self, capsys, fresh_registry
    ):
        def run() -> str:
            assert main(["--seed", "3", "explain", '(body-of-text "patient")']) == 0
            out = capsys.readouterr().out
            # Wall-clock columns: span total/self, and the record's times.
            out = re.sub(r" +\d+\.\dms(\+ \[open\])? +\d+\.\dms", " <ms>", out)
            out = re.sub(r'"trace_id": "[0-9a-f]{16}"', "<id>", out)
            return re.sub(
                r'"(\w+_ms|discover|select|translate|query|merge)": [\d.]+', "<ms>", out
            )

        assert run() == run()

    def test_ndjson_holds_the_stitched_rows_and_the_record(
        self, tmp_path, capsys, fresh_registry
    ):
        path = tmp_path / "explain.ndjson"
        code = main(
            ["--seed", "3", "explain", '(body-of-text "databases")', "--ndjson", str(path)]
        )
        assert code == 0
        assert str(path) in capsys.readouterr().out
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len({row["trace_id"] for row in rows}) == 1
        names = {row["name"] for row in rows if row["kind"] == "span"}
        assert {"discover", "search", "select", "query", "merge"} <= names
        assert any(name.startswith("serve:query:") for name in names)
        assert [row["kind"] for row in rows].count("query") == 1
        assert rows[-1]["kind"] == "query" and rows[-1]["outcome"] == "wire"

    def test_empty_expression_fails(self, capsys):
        assert main(["explain", "  "]) == 2


COMMANDS = {
    "search", "parse", "select", "experiment",
    "conformance", "explain", "checkpoint", "serve",
}


def _braced_commands(text: str) -> set[str]:
    """The one ``{a,b,...}`` command list in ``text``."""
    (listed,) = set(re.findall(r"\{([a-z]+(?:,[a-z]+){4,})\}", text))
    return set(listed.split(","))


class TestCommandSurface:
    """One list of subcommands, wherever it is written down."""

    def test_help_docstring_readme_and_verify_skill_agree(self, capsys):
        import repro.__main__ as cli

        with pytest.raises(SystemExit) as raised:
            main(["--help"])
        assert raised.value.code == 0
        assert _braced_commands(capsys.readouterr().out) == COMMANDS
        documented = set(re.findall(r"^\* ``(\w+)", cli.__doc__, flags=re.M))
        assert documented == COMMANDS
        assert _braced_commands((REPO / "README.md").read_text()) == COMMANDS
        skill = REPO / ".claude" / "skills" / "verify" / "SKILL.md"
        assert _braced_commands(skill.read_text()) == COMMANDS

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_subcommand_answers_help(self, command, capsys):
        with pytest.raises(SystemExit) as raised:
            main([command, "--help"])
        assert raised.value.code == 0
        assert f"python -m repro {command}" in capsys.readouterr().out


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
