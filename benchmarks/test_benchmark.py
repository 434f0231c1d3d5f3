"""Tests of the benchmark's own code: oracles, span arithmetic, generators,
and the agreement of BENCHMARK.json with what run.py reports.

    python -m pytest benchmarks -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import oracles
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_plucker_degree_oracle():
    assert oracles.plucker_degree(2, 5) == 5
    assert oracles.plucker_degree(3, 6) == 42
    assert oracles.plucker_degree(4, 10) == 140229804


def test_ci_hilbert_oracle():
    assert oracles.ci_hilbert((1, 1, 1), (3, 3, 3), 7) == (1, 3, 6, 7, 6, 3, 1, 0)
    # M6 is a complete intersection of degrees 3 and 4 in weights 1 and 2.
    assert oracles.ci_hilbert((1, 2), (3, 4), 6) == oracles.m6_hilbert(6) == (1, 1, 2, 1, 1, 0, 0)


def test_answer_oracles():
    assert oracles.expect_tuple((1, 3, 1))("(1, 3, 1)")
    assert not oracles.expect_tuple((1, 3, 1))("(1, 3, 2)")
    assert oracles.expect_invertible_pairing(2, 2)("[[0, 1], [1, 3/2]]")
    assert not oracles.expect_invertible_pairing(2, 2)("[[1, 2], [2, 4]]")
    assert not oracles.expect_invertible_pairing(2, 2)("[[1, 0, 0], [0, 1, 0]]")
    lr = oracles.expect_lr((1,), (1,))
    assert lr("S(1,1) + S(2)")
    assert not lr("S(2)")
    assert oracles.schur_dim((2, 1), 4) == 20


def test_verify_report_oracle():
    record = dict.fromkeys(oracles.VERIFY_FIELDS, "") | {"status": "pass"}
    assert oracles.verify_report(json.dumps([record] * 12))
    assert not oracles.verify_report(json.dumps([record] * 11))
    assert not oracles.verify_report(json.dumps([record | {"extra": 1}] * 12))
    assert not oracles.verify_report(json.dumps([record | {"status": "fail"}] * 12))


def test_self_time_subtracts_direct_children_only():
    # [id, name, start, end, parent, op]: a(0..10) > b(1..4) > d(2..3), a > c(5..6)
    spans = [
        [3, "d", 2.0, 3.0, 2, 0],
        [2, "b", 1.0, 4.0, 1, 0],
        [4, "c", 5.0, 6.0, 1, 0],
        [1, "a", 0.0, 10.0, 0, 0],
    ]
    assert tracing.self_times(spans) == {"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0}
    assert sum(tracing.self_times(spans).values()) == 10.0


def test_aggregate_sums_dumps_and_takes_max_bits():
    dump = {
        "spans": [[1, "algebra.row_reduce", 0.0, 2.0, 0, 0]],
        "counts": {"algebra.row_reduce.cells": 6, "algebra.row_reduce.max_bits": 5},
        "caches": {"quotient.graded_piece": [3, 1]},
        "import_s": 0.5,
    }
    other = dump | {"counts": {"algebra.row_reduce.cells": 4, "algebra.row_reduce.max_bits": 9}}
    m = tracing.aggregate([dump, other])
    assert m["algebra.row_reduce.calls"] == 2
    assert m["algebra.row_reduce.self_s"] == 4.0
    assert m["algebra.row_reduce.cells"] == 10
    assert m["algebra.row_reduce.max_bits"] == 9
    assert m["quotient.graded_piece.hit_ratio"] == 0.75
    assert m["schur.schur_polynomial.hit_ratio"] == 0.0


def test_tail_is_highest_percentile_with_ten_beyond():
    op = next(workloads.verify_ops(1))
    results = [run.Result(op, float(i), True) for i in range(1, 101)]
    assert run.tail(results) == (90.0, 90.0, 10)
    results[0] = run.Result(op, 0.5, False)
    assert run.tail(results)[0] == 91.0


def test_calibration_uses_the_mean_of_the_bracketing_probes(monkeypatch):
    probes = iter([2e-4, 6e-4, 4e-4])
    monkeypatch.setattr(run, "probe", lambda: next(probes))
    clock = run.Calibrated()
    assert clock.factor() == pytest.approx(run.REFERENCE_PROBE_S / 4e-4)
    assert clock.factor() == pytest.approx(run.REFERENCE_PROBE_S / 5e-4)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    make = workloads.WORKLOADS[name]
    first = [op.args for op in islice(make(workloads.DEFAULT_SEED), 60)]
    assert first == [op.args for op in islice(make(workloads.DEFAULT_SEED), 60)]


@pytest.mark.parametrize("name", ["eval-cold", "session"])
def test_held_out_seed_keeps_the_mix(name):
    n = 10 * (workloads.SESSION_ROUND if name == "session" else len(workloads.EVAL_CORPUS))
    make = workloads.WORKLOADS[name]
    default = list(islice(make(workloads.DEFAULT_SEED), n))
    held_out = list(islice(make(workloads.HELD_OUT_SEED), n))
    assert [op.args for op in default] != [op.args for op in held_out]
    mix = Counter((op.kind, op.query) for op in default)
    assert mix == Counter((op.kind, op.query) for op in held_out)
    if name == "session":
        fresh = sum(n for (kind, _), n in mix.items() if kind == "fresh")
        assert fresh == 10 * len(workloads.FRESH_SHAPES) == 0.3 * n


def test_generated_rings_are_complete_intersections():
    sys.path.insert(0, str(ROOT / "src"))
    from chowcalc.evaluator import Evaluator, format_value

    ev = Evaluator()
    ops = islice(workloads.session_ops(workloads.HELD_OUT_SEED), workloads.SESSION_ROUND)
    for op in ops:
        assert op.check(format_value(ev.run(op.args[0]))), op.args[0]


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


COUNTER_SUFFIXES = (".calls", ".cells", ".max_bits", ".terms_out", ".hit_ratio", "trace.ops")


@pytest.mark.parametrize("name, ops", [("session", workloads.SESSION_ROUND), ("eval-cold", 2)])
def test_traced_counters_repeat(monkeypatch, name, ops):
    monkeypatch.setitem(run.TRACE_OPS, name, ops)
    runs = [run.trace(name, workloads.DEFAULT_SEED) for _ in range(2)]
    counters = [{k: v for k, v in m.items() if k.endswith(COUNTER_SUFFIXES)} for m, _, _ in runs]
    assert counters[0] == counters[1]
    assert counters[0]["algebra.row_reduce.calls"] > 0
    assert all(r.ok for _, results, _ in runs for r in results)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
