"""The benchmark's own tests; they are not part of the repository's test run.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import pytest

import run

run.import_program()

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def _one_round(workload, tracer=None, reference=None):
    return run.run_rounds(workload, tracer=tracer, reference=reference)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("root", 0.0, 10.0, None, None, None),
        Span("a", 1.0, 4.0, 0, 0, None),
        Span("a.child", 2.0, 3.0, 1, 0, None),
        Span("b", 5.0, 9.0, 0, 1, None),
        Span("b.child", 5.5, 6.0, 3, 1, None),
        Span("b.child", 6.0, 7.5, 3, 1, None),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 2.0, 0.5, 1.5]
    assert sum(self_times(spans)) == spans[0].end - spans[0].start


def test_interpose_records_nested_spans_and_restores_names():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original = module.outer, module.inner
    tracer = Tracer()
    tracer.op = 7
    boundaries = [(module, "outer", "outer", None),
                  (module, "inner", lambda x: f"inner.{x}", lambda x: {"x": x})]
    with tracer.interpose(boundaries):
        assert module.outer(3) == 8
    assert (module.outer, module.inner) == original
    assert [(s.name, s.parent, s.op, s.counts) for s in tracer.spans] == [
        ("outer", None, 7, None), ("inner.3", 0, 7, {"x": 3})]


def test_tail_has_ten_samples_beyond_it():
    latency, percentile = run.tail([float(i) for i in range(100, 0, -1)])
    assert (latency, percentile) == (90.0, 90.0)
    assert run.tail([2.0, 1.0]) == (2.0, 100.0)


def test_failures_are_counted_per_operation():
    def check(value):
        return workloads.Verdict(workloads.digest(value), None if value else "wrong")

    def boom():
        raise ValueError("boom")

    ops = [workloads.Op("ok", 1, lambda: 1, check), workloads.Op("bad", 1, lambda: 0, check),
           workloads.Op("raises", 1, boom, check)]
    workload = workloads.Workload("fake", "ops_per_s", 1.0, ops, {})
    result = _one_round(workload)
    assert (result.attempted, result.failed) == (3, 2)
    assert _one_round(workload, reference=result.digests[0]).failed == 2
    assert _one_round(workload, reference="0" * 16).failed == 3


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_smoke_run(name):
    workload = workloads.build(name, 3, tiny=True)
    workloads.warm_up(name)
    plain = _one_round(workload)
    assert plain.failed == 0, plain.problems
    tracer = Tracer()
    with tracer.interpose(layers.BOUNDARIES + layers.ENTRY_POINTS[name]):
        traced = _one_round(workload, tracer, reference=plain.digests[0])
    assert traced.failed == 0, traced.problems
    bands = {i: op.band for i, op in enumerate(workload.ops)}
    metrics = layers.layer_metrics(tracer.spans, bands, 1, plain.walls[0], traced.counts)
    assert list(metrics) == list(layers.METRICS)
    self_sum = sum(metrics[f"{n}.self_s"] for n in layers.SPAN_NAMES)
    assert self_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["trace.wall_s"] == pytest.approx(traced.walls[0], abs=1e-4)
    if name == "worst_sweep":
        for point in workload.inputs["points"]:
            assert metrics[f"closedform.cells_per_mean.{point['band']}"] == point["M"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_one_seed_twice_gives_identical_digests(name):
    first, second = (workloads.build(name, 11, tiny=True) for _ in range(2))
    assert len(first.ops) == len(second.ops)
    assert _one_round(first).digests == _one_round(second).digests


@pytest.mark.parametrize("name", workloads.NAMES)
def test_two_seeds_give_different_inputs_and_equal_counts(name):
    one, two = workloads.build(name, 1), workloads.build(name, 2)
    assert (one.inputs, [op.label for op in one.ops]) != (two.inputs, [op.label for op in two.ops])
    assert len(one.ops) == len(two.ops)
    assert sum(op.work for op in one.ops) == sum(op.work for op in two.ops)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "worst_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
