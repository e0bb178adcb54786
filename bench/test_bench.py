"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Traced runs must repeat their counts exactly, so that counts can be cited
as counts; and every oracle must reject a wrong answer, not only accept
right ones.  The traced runs take about two minutes in all.
"""

import json
import shutil
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _result(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result["metrics"]


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat(name):
    first = _result("--workload", name, "--seed", "7", "--trace", "1")
    assert {k: m["unit"] for k, m in first.items()} == _units("per_layer")
    second = _result("--workload", name, "--seed", "7", "--trace", "1")
    counts = [k for k, m in first.items() if m["unit"] == "count"]
    assert [first[k] for k in counts] == [second[k] for k in counts]


def test_timed_run_reports_the_end_to_end_metrics():
    metrics = _result("--workload", "gallery", "--seed", "7", "--seconds", "1")
    assert {k: m["unit"] for k, m in metrics.items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gallery", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_lift_oracle_rejects_a_wrong_root():
    op = workloads.build("lift-deep", 3).warmup[0]
    rc, out, err = op.run()
    assert op.check((rc, out, err)) is None
    blob = json.loads(out)
    e, c = blob["result"]["terms"][-1]
    blob["result"]["terms"][-1] = [e, str((int(c) + 1) % op.p)]
    assert op.check((rc, json.dumps(blob), err))


def test_gallery_oracle_rejects_a_failed_claim():
    op = next(op for op in workloads.build("gallery", 3).ops if op.label.startswith("G6"))
    rc, out, err = op.run()
    assert op.check((rc, out, err)) is None
    blob = json.loads(out)
    blob["claims"][0]["exact_match"] = False
    assert op.check((rc, json.dumps(blob), err))
    blob["claims"] = blob["claims"][1:]
    assert op.check((rc, json.dumps(blob), err))
    assert op.check((1, out, err))


def test_as_oracles_accept_and_reject():
    ops = [op for op in workloads.build("gallery", 3).ops if isinstance(op, workloads.AsOp)]
    results = {op.case: op.run() for op in ops}
    for op in ops:
        assert op.check(results[op.case]) is None, op.label
    for op in ops:  # every case's check rejects another case's output
        other = next(r for case, r in results.items() if case != op.case)
        assert op.check(other)
    op = next(op for op in ops if op.case == "NegativeUnramified")
    rc, out, err = results[op.case]
    blob = json.loads(out)
    blob["outcome"]["residual"]["terms"].append(["100", "1"])
    assert op.check((rc, json.dumps(blob), err))


@pytest.mark.parametrize("kind", workloads.PLACE_KINDS)
def test_place_oracles_accept_and_reject(kind):
    ops = [op for op in workloads.build("places-eval", 3).ops if op.label.startswith(kind)][:60]
    results = [op.run() for op in ops]
    for op, result in zip(ops, results):
        assert op.check(result) is None, op.label
    # an op's check rejects another op's answer unless both expect the same
    rejected = 0
    for op, result, prev in zip(ops[1:], results, ops):
        if op.expected != prev.expected:
            assert op.check(result), op.label
            rejected += 1
    assert rejected > len(ops) // 2


def test_quad_sign_matches_decimal_arithmetic():
    with localcontext() as ctx:
        ctx.prec = 50
        root2 = Decimal(2).sqrt()
    for a in range(-30, 31):
        for b in range(-30, 31):
            x = a + b * root2
            assert oracles.quad_sign(a, b) == (x > 0) - (x < 0)
