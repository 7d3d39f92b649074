"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

Run from the root of the checkout.  The last test runs real (short) passes of
``ksystem-modular`` and takes about half a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_a_hand_built_tree():
    # solve [0, 100] holds two overlapping explicit children and a folded
    # node of 15 ns; the second child holds a folded node with a nested one.
    spans_ = [
        ["solve", 0, 100, None, None],
        ["algorithms.greedy", 10, 30, 0, None],
        ["algorithms.sample_greedy", 20, 50, 0, None],
    ]
    check = (2, "constraints.check")
    aggs = {
        (0, "objectives.evaluate"): [3, 15, 0, 0],
        check: [4, 12, 5, 1],
        (check, "constraints.component_check"): [8, 5, 0, 2],
    }
    span_self, agg_self = spans.self_times(spans_, aggs)
    # union of [10, 30] and [20, 50] covers 40 ns, the folded child 15 ns
    assert span_self == [100 - 40 - 15, 20, 30 - 12]
    assert agg_self == {(0, "objectives.evaluate"): 15, check: 7,
                        (check, "constraints.component_check"): 5}


def test_recorder_folds_hot_calls_under_their_parent():
    rec = spans.Recorder()
    leaf = rec.folded(lambda args, parent: "constraints.check", lambda ok: ok)
    outer = rec.explicit(lambda args, kwargs: "algorithms.greedy", lambda: [leaf(True), leaf(False)])
    outer()
    assert [s[0] for s in rec.spans] == ["algorithms.greedy"]
    count, total, child, rejects = rec.aggs[(0, "constraints.check")]
    assert (count, child, rejects) == (2, 0, 1)
    layers = spans.layer_metrics(rec)
    assert layers["constraints.check_calls"] == 2
    assert layers["constraints.reject_ratio"] == 0.5
    assert layers["algorithms.busy_s"] == pytest.approx(
        layers["algorithms.self_s"] + layers["constraints.check_s"])


def _solved_scale_like_trial():
    from submax import UniformMatroid, algorithms, objectives

    oracle, ground = objectives.generate(objectives.SyntheticSpec(
        kind="coverage_dispersion", n=40, seed=3, density=0.5, lam=0.5))
    U = UniformMatroid(ground, 5)
    res, _trace = algorithms.greedy(oracle.objective.oracle(), U)
    return oracle.objective, ground, U, res


def test_gate_fails_a_solution_with_one_element_flipped():
    from submax import UniformMatroid

    objective, ground, U, res = _solved_scale_like_trial()
    wl = workloads.Workload(seed=1, workdir=".")
    wl.check_result("good", res, objective, UniformMatroid(ground, U.m))
    assert "good" not in wl.failures

    dropped = res.solution.members[0]
    flipped = dataclasses.replace(res, solution=res.solution.without_element(dropped))
    wl.check_result("flipped", flipped, objective, UniformMatroid(ground, U.m))
    assert "flipped" in wl.failures
    assert wl.trials["flipped"] != wl.trials["good"]


def test_run_gate_counts_digest_mismatches_as_failed():
    good = {"trials": {"a": "1", "b": "2"}, "failures": {}, "counts": {"f_evals": 1}}
    corrupted = {"trials": {"a": "1", "b": "X"}, "failures": {}, "counts": {"f_evals": 1}}
    assert run.gate([good, good], {"a": "1", "b": "2"})[:2] == (4, 0)
    attempted, failed, problems = run.gate([good, corrupted], None)
    assert (attempted, failed) == (4, 1)
    attempted, failed, _ = run.gate([corrupted], {"a": "1", "b": "2"})
    assert (attempted, failed) == (2, 1)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ksystem-modular", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = bench["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)

    with open(os.path.join(ROOT, ".perfbench", "results", f"ksystem-modular-s1-t{trace}.json")) as fh:
        record = json.load(fh)
    assert set(record["machine"]) == {"git_sha", "python", "numpy", "nproc", "cpu"}
    assert record["workload"]["params"] == workloads.PARAMS["ksystem-modular"]
    assert all("unit" in row for row in record["end_to_end"].values())
