"""Tests of the benchmark itself: reference checks, span arithmetic, inputs.

    python3 -m pytest perfbench -q
"""

import copy
import json
from pathlib import Path

import pytest

from run import (
    END_TO_END,
    FIG1_SWEEP_SEEDS,
    PER_LAYER,
    REFERENCE,
    check_outputs,
    workload_inputs,
)
from spans import SpanRecorder, self_times, summarize

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def test_perturbed_mean_counts_as_failure(reference):
    seed = sorted(reference["fig1-sweep"], key=int)[0]
    outputs = copy.deepcopy({seed: reference["fig1-sweep"][seed]})
    assert check_outputs("fig1-sweep", [int(seed)], outputs, reference) == (1, 0)
    outputs[seed]["reproduce"]["mean"][3] += 1e-13
    assert check_outputs("fig1-sweep", [int(seed)], outputs, reference) == (1, 0)
    outputs[seed]["reproduce"]["mean"][3] += 1e-9
    assert check_outputs("fig1-sweep", [int(seed)], outputs, reference) == (1, 1)


def test_exit_code_and_missing_operations_count_as_failures(reference):
    seed = sorted(reference["exact-oracle"], key=int)[0]
    outputs = copy.deepcopy({seed: reference["exact-oracle"][seed]})
    n_ops = len(outputs[seed])
    outputs[seed]["pauli/m=2"]["within_bound"] = False
    del outputs[seed]["checks"]
    assert check_outputs("exact-oracle", [int(seed)], outputs, reference) == (n_ops, 2)
    fig = sorted(reference["fig2-coherent"], key=int)[0]
    changed = copy.deepcopy({fig: reference["fig2-coherent"][fig]})
    changed[fig]["reproduce"]["rc"] = 3
    assert check_outputs("fig2-coherent", [int(fig)], changed, reference) == (1, 1)


def test_self_time_arithmetic_on_a_synthetic_tree():
    # root [0, 10] -> a [1, 4] -> b [2, 3];  root -> c [5, 9] -> a [6, 7]
    names = ["root", "a", "b", "c"]
    name = [0, 1, 2, 3, 1]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0]
    parent = [-1, 0, 1, 0, 3]
    op = [-1, 0, 0, 1, 1]
    assert list(self_times(start, end, parent)) == [3.0, 2.0, 1.0, 3.0, 1.0]
    table = summarize(names, name, start, end, parent, op)
    assert table["a"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert table["root"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert sum(v["self_s"] for v in table.values()) == 10.0
    in_ops = summarize(names, name, start, end, parent, op, min_op=0)
    assert in_ops["root"]["calls"] == 0 and in_ops["a"]["calls"] == 2


def test_recorder_links_nested_calls_and_counts():
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda x: x + 1, lambda r, a, k, res: r.add("n", a[0]))
    outer = rec.wrap("outer", lambda x: inner(inner(x)))
    assert rec.run_op("op", 7, lambda: outer(1)) == 3
    assert [rec.names[i] for i in rec.name] == ["op", "outer", "inner", "inner"]
    assert list(rec.parent) == [-1, 0, 1, 1]
    assert list(rec.op) == [7, 7, 7, 7]
    assert rec.counts == {"n": 3}
    assert all(e >= s for s, e in zip(rec.start, rec.end))


def test_same_seed_gives_the_same_inputs(reference):
    for workload in ("fig2-coherent", "fig1-sweep", "exact-oracle"):
        pool = {int(s) for s in reference[workload]}
        first = workload_inputs(workload, 12345, reference)
        assert first == workload_inputs(workload, 12345, reference)
        assert set(first) <= pool
    sweep = workload_inputs("fig1-sweep", 1, reference)
    assert len(set(sweep)) == FIG1_SWEEP_SEEDS
    assert sweep != workload_inputs("fig1-sweep", 2, reference)
    assert workload_inputs("fig2-coherent", 1, reference) != workload_inputs(
        "fig2-coherent", 2, reference
    )


def test_metric_lists_match_benchmark_json():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
