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
    "repro.broker",
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


def test_broker_exports_the_partitioner_the_leaf_protocol_and_the_exact_root():
    """And nothing else: no replication, admission or routing policy."""
    import repro.broker

    assert sorted(repro.broker.__all__) == [
        "BrokeredMetasearcher",
        "ConsistentHashRing",
        "CorpusStats",
        "GlobalStatsView",
        "LeafBroker",
        "LeafHandle",
        "LeafProbe",
        "NetworkLeafHandle",
        "RootBroker",
        "build_hierarchy",
        "publish_broker_leaf",
        "selector_wire_name",
    ]


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


def test_transport_sits_below_the_broker_and_the_metasearcher():
    """The wire serves whatever is mounted on it; it imports none of it
    (the leaf's endpoints live with the leaf, in ``repro.broker``)."""
    import repro.transport

    offenders = [
        str(path)
        for path in pathlib.Path(repro.transport.__file__).parent.glob("*.py")
        if re.search(r"repro\.(broker|metasearch)", path.read_text())
    ]
    assert not offenders


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
    "QueryPolicy.retry_on_error": "§3.3 retry semantics; every caller wants the default (retry errors)",
    "QueryTranslator.feedback_terms": "§4.1.1 relevance feedback; no caller has needed another expansion size",
    "Metasearcher.query_policies": "per-source QueryPolicy overrides; tested at the dispatcher (policies=), never set on a Metasearcher",
    "SearchEngine.thesaurus": "the thesaurus modifier's synonym source; every engine uses DEFAULT_THESAURUS",
    "SimulatedInternet.realtime": "toggled as an attribute after refresh(), never at construction (see verify skill)",
    "SimulatedInternet.time_scale": "assigned as an attribute beside realtime, never at construction",
    "FaultProfile.fail_first": "set through FaultProfile.flaky(), in the defining file",
    "FaultProfile.timeout_after": "set through FaultProfile.hangs(), in the defining file",
    "FederationSpec.flaky_failures": "how long the generated federation's flaky host fails; every experiment and test takes the default",
    "SummaryPopulationSpec.words_per_source": "size of a generated summary; the select/broker commands and the tests take the default",
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
