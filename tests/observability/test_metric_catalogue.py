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
    under ``src/repro`` registers: a literal first argument, or — where a
    helper registers the name it was passed (``checkpoint._observe``) —
    the literals its callers in that module pass."""
    names: set[str] = set()
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        forwarding: dict[str, int] = {}  # helper -> index of its name parameter
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            parameters = [argument.arg for argument in function.args.args]
            for call in ast.walk(function):
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in KINDS
                    and call.args
                ):
                    continue
                first = call.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    names.add(first.value)
                elif isinstance(first, ast.Name) and first.id in parameters:
                    forwarding[function.name] = parameters.index(first.id)
        for call in ast.walk(tree):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id in forwarding
            ):
                names.add(call.args[forwarding[call.func.id]].value)
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
    # The collector sees both shapes of declaration.
    assert {"source_requests_total", "checkpoint_save_ms"} <= declared


def test_every_family_names_its_reader():
    assert all(documented_families().values())
    readers = documented_families()
    # The readers the suite and the product depend on (ISSUE 22).
    assert "suite" in readers["engine_postings_walked_total"]
    assert "suite" in readers["engine_postings_skipped_total"]
    assert "artifacts.py" in readers["broker_route_depth"]
