"""docs/architecture.md's metric catalogue is the families ``src/`` declares.

The table had drifted to 30 documented families against 42 declared;
this holds the two to set equality, so the "read by" audit (ROADMAP
item 1d) starts from a list that cannot drift again.
"""

import ast
import pathlib
import re

REPO = pathlib.Path(__file__).parents[2]
KINDS = {"counter", "gauge", "histogram"}


def declared_families() -> set[str]:
    """Every name a ``.counter(`` / ``.gauge(`` / ``.histogram(`` call
    under ``src/repro`` registers (always a literal first argument)."""
    names: set[str] = set()
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in KINDS
                and call.args
            ):
                assert isinstance(call.args[0], ast.Constant), f"{path}:{call.lineno}"
                names.add(call.args[0].value)
    return names


def documented_families() -> dict[str, str]:
    """``{family: its "read by" cell}`` from the catalogue table."""
    text = (REPO / "docs" / "architecture.md").read_text()
    table = text.split("| family | labels | layer | read by |\n", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[1:]  # skip the |---| line
    families = {}
    for row in rows:
        first, _, _, read_by = (cell.strip() for cell in row.strip("|").split("|"))
        for name in re.findall(r"`([a-z_]+)`", first):
            families[name] = read_by
    return families


def test_the_catalogue_lists_exactly_the_declared_families():
    declared, documented = declared_families(), set(documented_families())
    assert declared - documented == set(), "declared in src/, missing from the table"
    assert documented - declared == set(), "in the table, declared nowhere in src/"
    assert "source_requests_total" in declared
    assert len(declared) == 32  # the count docs/architecture.md states


def test_no_unlabelled_family_reports_one_store():
    """A process runs many segment stores and engines; an unlabelled
    per-store or per-engine gauge showed whichever wrote it last."""
    assert not declared_families() & {
        "storage_segments",
        "storage_segment_bytes",
        "storage_tombstones",
        "engine_prune_threshold",
    }


def test_every_family_names_its_reader():
    assert all(documented_families().values())
    readers = documented_families()
    # The readers the suite and the product depend on (ISSUE 22).
    assert "suite" in readers["engine_postings_walked_total"]
    assert "suite" in readers["engine_postings_skipped_total"]
    assert "artifacts.py" in readers["broker_route_depth"]
