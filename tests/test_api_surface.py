"""The public API surface: every exported name resolves.

Guards against broken ``__all__`` lists and accidental removals — the
kind of drift that only bites downstream users.
"""

import ast
import importlib
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).parents[1]

PACKAGES = [
    "repro",
    "repro.text",
    "repro.engine",
    "repro.corpus",
    "repro.starts",
    "repro.source",
    "repro.resource",
    "repro.vendors",
    "repro.transport",
    "repro.federation",
    "repro.observability",
    "repro.cache",
    "repro.metasearch",
    "repro.storage",
    "repro.experiments",
    "repro.zdsr",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} needs __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_has_no_duplicates(package_name):
    package = importlib.import_module(package_name)
    names = list(package.__all__)
    assert len(names) == len(set(names))


def test_package_never_imports_the_test_oracles():
    """Oracles are references the suites compare ``src/`` to — a
    production path that leans on one has no independent check left."""
    import repro

    offenders = [
        str(path)
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py")
        if re.search(r"^\s*(from|import)\s+tests\b", path.read_text(), re.MULTILINE)
    ]
    assert not offenders


def test_top_level_has_docstring_quickstart():
    import repro

    assert "Quickstart" in repro.__doc__


def test_version_is_pep440ish():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(part.isdigit() for part in parts)


def test_conformance_and_snippets_at_top_level():
    import repro

    assert callable(repro.check_source)
    assert callable(repro.make_snippet)


def test_two_executors_not_three():
    import repro
    import repro.federation
    import repro.metasearch

    for package in (repro, repro.federation, repro.metasearch):
        assert "ParallelExecutor" not in package.__all__
    assert {"AsyncExecutor", "SerialExecutor"} <= set(repro.federation.__all__)


def test_both_wires_are_transports():
    from repro.transport import HttpTransport, SimulatedInternet, Transport

    assert isinstance(SimulatedInternet(), Transport)
    assert isinstance(HttpTransport(), Transport)


def test_transport_sits_below_the_metasearcher():
    """The wire serves whatever is mounted on it; it imports none of it."""
    import repro.transport

    offenders = [
        str(path)
        for path in pathlib.Path(repro.transport.__file__).parent.glob("*.py")
        if re.search(r"repro\.metasearch", path.read_text())
    ]
    assert not offenders


def test_the_search_path_imports_no_metrics_registry():
    """What one search did is on its round's record — outcomes, the
    query-log record, the trace — so the metasearcher, the caches and
    the per-source runner count none of it a second time."""
    source = REPO / "src" / "repro"
    paths = [
        *(source / "metasearch").rglob("*.py"),
        *(source / "cache").rglob("*.py"),
        source / "federation" / "runner.py",
    ]
    registry = re.compile(
        r"repro\.observability\.metrics|\b(get_registry|set_registry|MetricsRegistry)\b"
    )
    assert not [str(path) for path in paths if registry.search(path.read_text())]


def test_the_suite_is_the_only_benchmark_and_nothing_times_by_hand():
    """``benchmarks/suite/`` is the one measuring instrument: no legacy
    ``test_bench_*.py`` producer beside it and no pytest-benchmark import
    anywhere (the paper's tables come from ``python -m repro
    experiment``, checked by ``tests/experiments/test_artifacts.py``)."""
    repo = pathlib.Path(__file__).parents[1]
    suite = repo / "benchmarks" / "suite"
    sources = list(repo.rglob("*.py"))
    assert not [
        str(path)
        for path in sources
        if path.name.startswith("test_bench_") and suite not in path.parents
    ]
    imports = re.compile(r"^\s*(from|import)\s+pytest_benchmark\b", re.MULTILINE)
    assert not [str(path) for path in sources if imports.search(path.read_text())]


# -- the knob audit ---------------------------------------------------------
#
# A defaulted constructor parameter nobody passes is a second value of the
# object that no test, example or workload has ever seen.  Every defaulted
# field of a public ``*Policy`` / ``*Profile`` / ``*Spec`` dataclass and every
# defaulted parameter of a public class's ``__init__`` under ``src/repro``
# must be *set* in some file other than the one defining it — passed by
# keyword in any call, or positionally in a call of the class's own name —
# under ``src/``, ``tests/``, ``examples/`` or ``benchmarks/suite/``.  What is
# not is listed here with the reason it stays; an entry that is set after all,
# or whose knob is gone, fails too, so the list only ever says what is true.

KNOB_ROOTS = ("src", "tests", "examples", "benchmarks/suite")
KNOB_DATACLASS_SUFFIXES = ("Policy", "Profile", "Spec")
KEYWORD_ONLY = 10**6  # a positional index no call reaches
UNSET_KNOBS = {
    "FaultProfile.fail_first": "set through FaultProfile.flaky(), in the defining file",
    "FaultProfile.timeout_after": "set through FaultProfile.hangs(), in the defining file",
    "StartsHttpServer.host": "loopback by default; nothing in this repo binds another interface",
    "MetricFamily.label_names": "constructed only by MetricsRegistry, in the defining file",
    "TransportError.record": "attached by SimulatedInternet, in the defining file",
}


def _is_dataclass(node) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else target.id
        if name == "dataclass":
            return True
    return False


def declared_knobs() -> dict[str, tuple[pathlib.Path, int]]:
    """``{"Class.knob": (defining file, positional index)}``."""
    knobs = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            if _is_dataclass(node) and node.name.endswith(KNOB_DATACLASS_SUFFIXES):
                fields = [
                    statement
                    for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                ]
                for index, statement in enumerate(fields):
                    if statement.value is not None:
                        name = f"{node.name}.{statement.target.id}"
                        knobs[name] = (path, index)
            for statement in node.body:
                if isinstance(statement, ast.FunctionDef) and statement.name == "__init__":
                    arguments = statement.args
                    positional = (arguments.posonlyargs + arguments.args)[1:]
                    first_default = len(positional) - len(arguments.defaults)
                    for index, argument in enumerate(positional):
                        if index >= first_default:
                            knobs[f"{node.name}.{argument.arg}"] = (path, index)
                    for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
                        if default is not None:
                            knobs[f"{node.name}.{argument.arg}"] = (path, KEYWORD_ONLY)
    return knobs


def unset_knobs() -> set[str]:
    by_keyword: dict[str, set[pathlib.Path]] = {}
    by_position: dict[str, list[tuple[pathlib.Path, int]]] = {}
    for root in KNOB_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            for call in ast.walk(ast.parse(path.read_text())):
                if not isinstance(call, ast.Call):
                    continue
                for keyword in call.keywords:
                    by_keyword.setdefault(keyword.arg, set()).add(path)
                callee = call.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
                by_position.setdefault(name, []).append((path, len(call.args)))
    unset = set()
    for knob, (definition, index) in declared_knobs().items():
        class_name, name = knob.split(".")
        by_name = by_keyword.get(name, set()) - {definition}
        in_place = any(
            path != definition and passed > index
            for path, passed in by_position.get(class_name, ())
        )
        if not by_name and not in_place:
            unset.add(knob)
    return unset


def test_every_knob_is_set_by_someone_or_says_why_it_stays():
    unset = unset_knobs()
    assert unset - set(UNSET_KNOBS) == set(), "defaulted, never set, not in UNSET_KNOBS"
    assert set(UNSET_KNOBS) - unset == set(), "listed in UNSET_KNOBS but set, or gone"
    assert all(UNSET_KNOBS.values())
    assert len(UNSET_KNOBS) <= 6


# -- the caller audit -------------------------------------------------------
#
# ROADMAP item 5's rule, by machine: every public function, class and public
# method defined under ``src/repro`` must be *used* — loaded as a name or an
# attribute (matched by name, as the knob audit matches keywords) — somewhere
# under ``src/``, ``examples/`` or ``benchmarks/suite/``.  Its own ``def``,
# ``__all__`` entries, re-export imports and docstrings are not uses, and
# neither is a test: what only tests call is a feature nothing reads.  The
# suite's ``LayerShim`` patches callables by dotted name, so there (and only
# there) a string literal counts.  What has no caller is deleted with its
# tests, or listed here with a reason citing the paper section, DESIGN.md §2
# row or EXPERIMENTS.md table that keeps it; an entry that gains a caller, or
# whose name is gone, fails too.

CALLER_ROOTS = ("src", "examples")
PATCHED_BY_NAME_ROOTS = ("benchmarks/suite",)
CITATION = re.compile(r"§\s?\d|EXPERIMENTS\.md")
UNCALLED = {
    "StartsSource.add_documents": "§4.3.1 DateChanged: a collection grows between metadata exports and the next harvest must see it (tests/source/test_updates.py)",
    "StartsSource.remove_documents": "§4.3.1 DateChanged: the shrinking half of add_documents",
    "export_resource": "§4.3 (the paper serves cont_sum.txt from an ftp:// URL); DESIGN.md §2 'File-based blob export' row",
    "register_file_url": "§4.3; DESIGN.md §2 'File-based blob export' row: the file:// harvesting half of export_resource",
    "DiscoveryService.forget": "§4.3.1 DateExpires: forces a re-harvest of one source ahead of the date it gave; the writer the catalog law churns (tests/metasearch/test_concurrent_callers.py)",
    "NativeSyntax.generate": "§4.1.1 Free-form-text: an informed metasearcher writes a native query for the source to take verbatim; parse is the source's half (source/execution.py)",
    "InfixSyntax.generate": "§4.1.1 Free-form-text: the infix vendors' native form of a STARTS query",
    "PlusMinusSyntax.generate": "§4.1.1 Free-form-text: the +/- vendors' native form of a STARTS query",
    "SemicolonSyntax.generate": "§4.1.1 Free-form-text: the semicolon/comma vendors' native form of a STARTS query",
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def defined_names(package: pathlib.Path) -> set[str]:
    """``function``, ``Class`` and ``Class.method`` for every public
    module-level definition under ``package``.  A private class's public
    methods count when a public class inherits them (a mixin's surface is
    its subclasses'); a private class nobody public extends answers to
    whatever framework calls it."""
    functions, classes = [], []
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                classes.append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append(node)
    mixins = {
        base.id
        for node in classes
        if _is_public(node.name)
        for base in node.bases
        if isinstance(base, ast.Name)
    }
    names = {node.name for node in functions + classes if _is_public(node.name)}
    for node in classes:
        if _is_public(node.name) or node.name in mixins:
            names.update(
                f"{node.name}.{statement.name}"
                for statement in node.body
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _is_public(statement.name)
            )
    return names


def _loaded_names(node, enclosing: frozenset, literals: bool, used: set[str]) -> None:
    """Add the names loaded under ``node`` to ``used``, except a name
    loaded inside a function of that same name: a method that only
    recurses, or only forwards to its namesake, has no caller."""
    for child in ast.iter_child_nodes(node):
        name = None
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            name = child.id
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            name = child.attr
        elif literals and isinstance(child, ast.Constant) and isinstance(child.value, str):
            used.update(re.findall(r"[A-Za-z_]\w*", child.value))
        if name is not None and name not in enclosing:
            used.add(name)
        inner = enclosing
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = enclosing | {child.name}
        _loaded_names(child, inner, literals, used)


def used_names(roots, patched_by_name_roots=()) -> set[str]:
    used: set[str] = set()
    for root in (*roots, *patched_by_name_roots):
        literals = root in patched_by_name_roots
        for path in sorted(pathlib.Path(root).rglob("*.py")):
            _loaded_names(ast.parse(path.read_text()), frozenset(), literals, used)
    return used


def caller_audit(package, roots, patched_by_name_roots, table) -> list[str]:
    """What is wrong with ``table`` as the list of ``package``'s uncalled
    names; empty when the list says exactly what is true, with reasons.

    Uses are matched by name, so a method whose name some other, called
    name shares looks called — except a use inside a function of that
    same name, which does not count (a method that only recurses, or
    only forwards to its namesake, has no caller).  The collisions known
    to be left: ``QueryLog.write_ndjson``, whose name only the suite's
    own ``SpanRecorder.write_ndjson`` call carries, and
    ``QueryLog.clear``, ``TraceCollector.clear`` and
    ``MetricsRegistry.reset``, whose names only built-in containers'
    ``clear()``, ``ContextVar.reset()`` and the suite's own ``clear()`` /
    ``reset()`` calls carry.  Any method named like a built-in
    container's (``get``, ``add``, ``clear``, ...) is vouched for by
    every call of that name."""
    used = used_names(roots, patched_by_name_roots)
    uncalled = {
        name for name in defined_names(package) if name.rpartition(".")[2] not in used
    }
    return (
        [f"{name}: no caller, not in UNCALLED" for name in sorted(uncalled - set(table))]
        + [f"{name}: in UNCALLED but called, or gone" for name in sorted(set(table) - uncalled)]
        + [
            f"{name}: reason cites no paper §, DESIGN.md §2 row or EXPERIMENTS.md table"
            for name, reason in sorted(table.items())
            if not CITATION.search(reason)
        ]
    )


def test_everything_public_has_a_caller_or_says_why_it_stays():
    failures = caller_audit(
        REPO / "src" / "repro",
        [REPO / root for root in CALLER_ROOTS],
        [REPO / root for root in PATCHED_BY_NAME_ROOTS],
        UNCALLED,
    )
    assert failures == []
    assert len(UNCALLED) <= 25


@pytest.fixture
def seeded_tree(tmp_path):
    """A package with one called and one uncalled function and method, a
    mixin, a framework hook — and the callers of the called ones."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        'from pkg.mod import orphan, used\n__all__ = ["orphan", "used"]\n'
    )
    (package / "mod.py").write_text(
        '"""Docstring naming orphan() and Thing.idle is not a use."""\n'
        "def used(): ...\n"
        "def orphan(): ...\n"
        "def _private(): ...\n"
        "class _Mixin:\n"
        "    def inherited_idle(self): ...\n"
        "class _Hook:\n"
        "    def log_message(self): ...\n"
        "class Thing(_Mixin):\n"
        "    def busy(self): ...\n"
        "    def idle(self): ...\n"
        "    def spin(self, n): return self.spin(n - 1) if n else 0\n"
        "    def patched(self): ...\n"
        "    def _helper(self): ...\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from pkg import orphan, used\nfrom pkg.mod import Thing\nused()\nThing().busy()\n"
    )
    (tmp_path / "suite").mkdir()
    (tmp_path / "suite" / "shim.py").write_text('PATCHES = ["pkg.mod:Thing.patched"]\n')
    return tmp_path


def _seeded_audit(tree, table):
    return caller_audit(
        tree / "src" / "pkg", [tree / "src", tree / "examples"], [tree / "suite"], table
    )


class TestTheCallerAuditItself:
    TRUE = {
        "orphan": "§4.1 keeps it",
        "Thing.idle": "DESIGN.md §2 row",
        "Thing.spin": "§4.1 keeps it",
        "_Mixin.inherited_idle": "EXPERIMENTS.md table E1",
    }

    def test_a_table_that_says_what_is_true_passes(self, seeded_tree):
        assert _seeded_audit(seeded_tree, self.TRUE) == []

    def test_it_fails_on_an_uncalled_function(self, seeded_tree):
        table = {name: why for name, why in self.TRUE.items() if name != "orphan"}
        assert _seeded_audit(seeded_tree, table) == ["orphan: no caller, not in UNCALLED"]

    def test_it_fails_on_an_uncalled_public_method(self, seeded_tree):
        table = {name: why for name, why in self.TRUE.items() if "." not in name}
        assert _seeded_audit(seeded_tree, table) == [
            "Thing.idle: no caller, not in UNCALLED",
            "Thing.spin: no caller, not in UNCALLED",
            "_Mixin.inherited_idle: no caller, not in UNCALLED",
        ]

    def test_it_fails_on_an_entry_that_has_a_caller_or_is_gone(self, seeded_tree):
        table = {**self.TRUE, "used": "§3 says so", "Thing.busy": "§3", "vanished": "§3"}
        assert _seeded_audit(seeded_tree, table) == [
            "Thing.busy: in UNCALLED but called, or gone",
            "used: in UNCALLED but called, or gone",
            "vanished: in UNCALLED but called, or gone",
        ]

    def test_it_fails_on_a_reason_that_cites_nothing(self, seeded_tree):
        table = {**self.TRUE, "orphan": "somebody might want it"}
        assert _seeded_audit(seeded_tree, table) == [
            "orphan: reason cites no paper §, DESIGN.md §2 row or EXPERIMENTS.md table"
        ]

    def test_a_use_inside_a_function_of_the_same_name_is_no_caller(self, seeded_tree):
        """``Thing.spin`` calls only itself: listed, it passes; unlisted,
        it fails; a call from anywhere else makes the entry wrong."""
        table = {name: why for name, why in self.TRUE.items() if name != "Thing.spin"}
        assert _seeded_audit(seeded_tree, table) == ["Thing.spin: no caller, not in UNCALLED"]
        (seeded_tree / "examples" / "spinner.py").write_text(
            "from pkg.mod import Thing\ndef spin_twice():\n    return Thing().spin(2)\n"
        )
        assert _seeded_audit(seeded_tree, self.TRUE) == [
            "Thing.spin: in UNCALLED but called, or gone"
        ]

    def test_a_string_literal_counts_only_where_callables_are_patched_by_name(
        self, seeded_tree
    ):
        (seeded_tree / "examples" / "names.py").write_text('NAMES = ["idle"]\n')
        assert _seeded_audit(seeded_tree, self.TRUE) == []
        (seeded_tree / "suite" / "more.py").write_text('NAMES = ["pkg.mod.Thing.idle"]\n')
        assert _seeded_audit(seeded_tree, self.TRUE) == [
            "Thing.idle: in UNCALLED but called, or gone"
        ]


def test_the_leaf_wire_and_the_checkpoints_are_gone_and_nothing_unpickles():
    """The whole broker tree went with its leaf wire: table A2 models
    its own root/leaf hierarchy, and nothing imports the package."""
    source = REPO / "src" / "repro"
    assert not (source / "broker").exists()
    assert not (source / "storage" / "checkpoint.py").exists()
    everything = [
        path
        for root in (*CALLER_ROOTS, *PATCHED_BY_NAME_ROOTS, "tests")
        for path in (REPO / root).rglob("*.py")
        if path != pathlib.Path(__file__)
    ]
    importing = re.compile(r"repro\.(broker|storage\.checkpoint)\b")
    assert not [str(path) for path in everything if importing.search(path.read_text())]
    # ``grep -rn "pickle" src/`` is empty: the only unpickler was the
    # result-cache checkpoint.
    assert not [str(path) for path in source.rglob("*.py") if "pickle" in path.read_text()]
