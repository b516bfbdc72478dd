"""The benchmark harness against the package as it stands."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_traced_lemma44_round():
    # the tracer wraps every one of its layers by module and name, so a
    # renamed function breaks --trace 1; one short traced run finds it
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma44", "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    details, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0
    assert details["count_mismatches"] == 0


def test_perfbench_traced_lift_verify_round():
    # lemma44 never calls kernels.hom_batch, so its traced round cannot
    # catch a work counter that no longer reads hom_batch's arguments; one
    # short traced lift_verify round does
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lift_verify", "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    details, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0
    assert details["count_mismatches"] == 0
    metrics = result["metrics"]
    assert metrics["kernels.hom_batch.calls"]["value"] > 0
    assert metrics["kernels.hom_batch.rows"]["value"] > 0


def test_perfbench_traced_norm_search_round():
    # neither the lemma44 nor the lift_verify round calls fbl_lower_bound,
    # so only this round reads its evaluation counter; it also checks that
    # the eval_batch rows and the certificates (tuple_constraint) are counted
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "norm_search", "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    details, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0
    assert details["count_mismatches"] == 0
    metrics = result["metrics"]
    for name in ("fblnorm.fbl_lower_bound.calls", "fblnorm.fbl_lower_bound.evaluations",
                 "homfun.eval_batch.rows", "fblnorm.tuple_constraint.calls",
                 "kernels.pattern_norms.calls"):
        assert metrics[name]["value"] > 0, name
