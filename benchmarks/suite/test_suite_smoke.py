"""Smoke test for the suite itself.  Run explicitly — not part of tier-1::

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite_smoke.py -q

At ``--smoke`` size (tiny worlds, one pass) every workload and every
metric ``BENCHMARK.json`` names must come out, finite, and installing
then removing the span wrappers must leave the wrapped attributes
exactly as they were.
"""

import json
import math
import pathlib
import time

from benchmarks.suite.__main__ import run_all
from benchmarks.suite.runner import END_TO_END, PER_LAYER, _make_searcher
from benchmarks.suite.spans import LayerShim, SpanRecorder
from benchmarks.suite.workloads import WORKLOADS, workload_named
from benchmarks.suite.worlds import build_world, generate_inputs

ROOT = pathlib.Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_contract_names_what_the_suite_emits():
    assert [w["name"] for w in CONTRACT["workloads"]] == [w.name for w in WORKLOADS]
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        w.name: w.why for w in WORKLOADS
    }
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == PER_LAYER
    assert CONTRACT["paths"] == ["benchmarks/suite"]


def test_smoke_run_emits_every_metric_of_every_workload():
    started = time.perf_counter()
    document = run_all([w.name for w in WORKLOADS], seed=3, seconds=0.0, smoke=True)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"smoke run took {elapsed:.1f}s"
    assert document["claim"] is None
    assert set(document["workloads"]) == {w.name for w in WORKLOADS}
    for name, workload in document["workloads"].items():
        assert workload["correct"], name
        assert workload["end_to_end"]["failed_fraction"] == 0.0, name
        for metric in END_TO_END:
            value = workload["end_to_end"][metric]
            assert math.isfinite(value) and value > 0.0, (name, metric, value)
        for metric in PER_LAYER:
            assert math.isfinite(workload["per_layer"][metric]), (name, metric)
    cached = document["workloads"]["zipf_cached"]["per_layer"]
    assert cached["cache.hit_fraction"] > 0.5
    segments = document["workloads"]["deep_segments"]["per_layer"]
    assert segments["storage.segments"] > 0
    leftovers = [p.name for p in (ROOT / "benchmarks/suite/out").glob("run-*")]
    assert leftovers == [], leftovers


def test_wrappers_leave_the_wrapped_attributes_identical(tmp_path):
    workload = workload_named("topk_fanout").smoke()
    inputs = generate_inputs(workload, 3)
    world = build_world(workload.world, inputs, tmp_path)
    searcher = _make_searcher(world, workload)
    searcher.refresh()
    recorder = SpanRecorder()
    shim = LayerShim(recorder, searcher)
    before = shim.snapshot()
    with shim:
        assert shim.snapshot() != before
        searcher.search(inputs.queries[0], k_sources=workload.k_sources)
    after = shim.snapshot()
    assert len(after) == len(before)
    assert all(now is then for now, then in zip(after, before))
    names = {span.name for span in recorder.spans}
    assert {"client.search", "selection.select", "engine.search"} <= names
