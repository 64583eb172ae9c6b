"""Tests of the benchmark's own arithmetic and tracing.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import json
import re
import threading
import types
from pathlib import Path

import pytest

import run
import workloads
from spans import Span, Target, Tracer, union_length

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_union_length_counts_overlaps_once():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([(1.0, 4.0), (2.0, 3.0)]) == 3.0


def test_self_time_subtracts_union_of_overlapping_children():
    tracer = Tracer()
    root = Span(1, "op", 0.0, 10.0, None, 1)
    # two pool threads whose children overlap in [3, 5]; one child pokes
    # past the end of the root and only its covered part counts
    tracer.spans = [
        root,
        Span(2, "split", 1.0, 5.0, 1, 2),
        Span(3, "split", 3.0, 7.0, 1, 3),
        Span(4, "late", 9.0, 12.0, 1, 3),
        Span(5, "grandchild", 1.0, 5.0, 2, 2),
    ]
    assert tracer.self_time(root) == pytest.approx(10.0 - 6.0 - 1.0)
    assert tracer.self_time(tracer.spans[1]) == pytest.approx(0.0)
    assert tracer.busy("split") == pytest.approx(8.0)


def test_pool_thread_spans_take_the_root_as_parent():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def worker():
        with tracer.span("split"):
            barrier.wait()

    with tracer.span("op") as root:
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    splits = tracer.named("split")
    assert [s.parent for s in splits] == [root.id, root.id]
    assert len({s.thread for s in splits}) == 2
    assert root.parent is None
    covered = union_length((s.start, s.end) for s in splits)
    assert tracer.self_time(root) == pytest.approx(root.duration - covered)


def test_patched_restores_originals_and_records_missing_names():
    module = types.ModuleType("fake")

    def double(x):
        return 2 * x

    module.double = double
    tracer = Tracer()
    targets = [
        Target(module, "double", "fake.double", lambda r, a, k: {"out": r}),
        Target(module, "gone", "fake.gone"),
    ]
    with pytest.raises(RuntimeError):
        with tracer.patched(targets):
            assert module.double is not double
            assert module.double(3) == 6
            raise RuntimeError("operation failed")
    assert module.double is double
    assert not hasattr(module, "gone")
    assert tracer.missing == ["fake.gone"]
    assert tracer.info_values("fake.double", "out") == [6]


def test_every_traced_name_exists_at_this_commit():
    tracer = Tracer()
    originals = [getattr(t.module, t.attr) for t in workloads.targets()]
    with tracer.patched(workloads.targets()):
        pass
    assert tracer.missing == []
    assert [getattr(t.module, t.attr) for t in workloads.targets()] == originals


def test_metric_and_workload_names_are_valid_and_match_benchmark_json():
    names = list(run.END_TO_END) + list(workloads.PER_LAYER) + list(workloads.WORKLOADS)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(workloads.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for m in spec["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == workloads.PER_LAYER[m["name"]]


def test_layer_metrics_cover_every_per_layer_name():
    tracer = Tracer()
    with tracer.span("operation"):
        pass
    got = workloads.layer_metrics(tracer)
    # the remaining three come from the untraced and single-worker runs
    assert set(workloads.PER_LAYER) - set(got) == {
        "trace.overhead_s", "pipeline.serial_run_s", "pipeline.pool_speedup",
    }


def test_report_problems_flags_missing_nonfinite_and_out_of_range():
    cfg = workloads.pipeline.EvalConfig(transductive=False)
    report = types.SimpleNamespace(
        mean={"A_UU": 0.5, "A_UT": float("nan"), "A_ST": 1.5},
        splits=[{"A_UU": 0.5, "A_UT": 0.5, "A_ST": 0.5, "H": 0.5}],
    )
    problems = workloads.report_problems(cfg, {"inductive": report})
    assert problems == [
        "inductive mean A_UT=nan", "inductive mean A_ST=1.5", "inductive mean H=None",
    ]
