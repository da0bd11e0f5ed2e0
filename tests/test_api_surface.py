"""The public API surface: every exported name resolves.

Guards against broken ``__all__`` lists and accidental removals — the
kind of drift that only bites downstream users.
"""

import importlib
import pathlib
import re

import pytest

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
