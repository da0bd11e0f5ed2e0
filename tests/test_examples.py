"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; these tests keep them from
rotting as the library evolves.
"""

import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} produced no output"


def test_all_examples_discovered():
    names = {script.stem for script in SCRIPTS}
    assert "quickstart" in names
    assert len(names) >= 7
