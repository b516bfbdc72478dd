"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 7 (byte-identical reports under a fixed seed) re-runs criteria 1-6
and compares the serialized reports, so all report builders live here as
deterministic functions of the seed.
"""

import json
import math
import time

import numpy as np
import pytest

from fbl.fblnorm import (
    SearchConfig,
    dim1_norm,
    fbl_lower_bound,
    tuple_constraint,
    upper_bound_finite_coords,
)
from fbl.homfun import Add, Delta, Pos, Scale, parse
from fbl.lifting import LiftingSystem
from fbl.spaces import Space
from fbl.verify import (
    check_beta_section,
    check_biorthogonal,
    check_disjoint,
    check_freenorms,
    check_lemma44,
    check_normspan,
)

SEED = 0
PS4 = [1.0, 2.0, math.inf]
TOL = 1e-9

_reports: dict[str, str] = {}


def _record(name: str, payload) -> str:
    blob = json.dumps(payload, sort_keys=True)
    _reports[name] = blob
    return blob


def _line(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------


def run_criterion_1(seed=SEED):
    bounds = []
    for pi, p in enumerate(PS4):
        space = Space.lp(p, 4)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(10, pi)))
        for _ in range(20):
            x = rng.standard_normal(4)
            x /= space.norm(x)
            est = fbl_lower_bound(Delta(x), space,
                                  SearchConfig(k=4, restarts=200, seed=seed))
            bounds.append(est.lower_bound)
    return bounds


def test_criterion_1_delta_isometry():
    t0 = time.perf_counter()
    bounds = run_criterion_1()
    elapsed = time.perf_counter() - t0
    _record("c1", bounds)
    lo, hi = min(bounds), max(bounds)
    ok = lo >= 0.995 and hi <= 1.0 + TOL and elapsed < 30.0
    _line(1, ok, f"delta isometry on l1/l2/linf^4: bounds in [{lo:.6f}, {hi:.9f}], "
                 f"{elapsed:.1f}s")


def run_criterion_2(seed=SEED):
    space = Space.lp(1, 2)
    expr = parse("|d(1,0)| v |d(0,1)|")
    est = fbl_lower_bound(expr, space, SearchConfig(k=2, restarts=200, seed=seed))
    ub = upper_bound_finite_coords(expr, space, [1, 2])
    C, _ = tuple_constraint(space, [[1.0, 0.0], [0.0, 1.0]])
    return {"lower": est.lower_bound, "upper": ub.value, "witness_constraint": C}


def test_criterion_2_exact_value_two_atoms():
    r = run_criterion_2()
    _record("c2", r)
    ok = r["lower"] >= 1.999 and r["upper"] == 2.0 and r["witness_constraint"] == 1.0
    _line(2, ok, f"|delta_a| v |delta_b| on l1^2: lower {r['lower']:.6f}, "
                 f"certified upper {r['upper']}")


def run_criterion_3(seed=SEED):
    space = Space.lp(2, 1)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(30,)))
    rows = []
    for _ in range(50):
        a, b = rng.uniform(-3, 3, size=2)
        expr = Add([Scale(float(a), Pos(Delta([1.0]))),
                    Scale(float(b), Pos(Delta([-1.0])))])
        oracle = dim1_norm(expr, space)
        est = fbl_lower_bound(expr, space, SearchConfig(k=2, restarts=20, seed=seed))
        rows.append({"f1": a, "fm1": b, "oracle": oracle, "search": est.lower_bound})
    return rows


def test_criterion_3_dim1_oracle():
    rows = run_criterion_3()
    _record("c3", rows)
    rel_err = max(abs(r["search"] - r["oracle"]) / r["oracle"] for r in rows)
    overshoot = max(r["search"] - r["oracle"] for r in rows)
    ok = rel_err <= 1e-3 and overshoot <= TOL
    _line(3, ok, f"d=1 closed form, 50 instances: max rel err {rel_err:.2e}, "
                 f"max overshoot {overshoot:.2e}")


def run_criterion_4(seed=SEED):
    out = {}
    search = SearchConfig(k=3, restarts=8, seed=seed)
    for p in PS4:
        system = LiftingSystem(Space.lp(p, 6))
        bio = check_biorthogonal(system)
        dis = check_disjoint(system, samples=10_000, seed=seed)
        beta = check_beta_section(system, samples=1000, seed=seed, tol=1e-12)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(40,)))
        span = check_normspan(system, rng.standard_normal((100, 6)), search)
        out[str(system.space)] = {
            "biorthogonal": bio.to_dict(),
            "disjoint": dis.to_dict(),
            "beta_section": beta.to_dict(),
            "normspan_failures": len(span.failures),
            "normspan_worst_slack": span.worst_slack,
            "passed": all(r.passed for r in [bio, dis, beta, span]),
        }
    return out


def test_criterion_4_lifting_suite():
    t0 = time.perf_counter()
    out = run_criterion_4()
    elapsed = time.perf_counter() - t0
    _record("c4", out)
    ok = all(v["passed"] for v in out.values()) and elapsed < 120.0
    _line(4, ok, f"lifting suite at d=6 on l1/l2/linf: "
                 f"{'all checks pass' if ok else out}, {elapsed:.1f}s")


def run_criterion_5(seed=SEED):
    system = LiftingSystem(Space.lp(2, 6))
    search = SearchConfig(k=3, restarts=8, seed=seed)
    pairs = [(n, k) for n in range(1, 7) for k in range(0, 8 - n)]
    reports = check_freenorms(system, pairs, search, samples=1000)
    return [{"n": n, "k": k, "passed": rep.passed, "worst_slack": rep.worst_slack,
             "bound": rep.config.get("tail_bound")}
            for (n, k), rep in zip(pairs, reports)]


def test_criterion_5_truncation_tail_bound():
    rows = run_criterion_5()
    _record("c5", rows)
    ok = all(r["passed"] for r in rows)
    worst = min(r["worst_slack"] for r in rows)
    _line(5, ok, f"truncation tail bound, {len(rows)} (n,k) pairs: "
                 f"worst slack {worst:.3e}")


def run_criterion_6(seed=SEED):
    report = check_lemma44(instances=10_000, max_l=6, seed=seed)
    return report.to_dict()


def test_criterion_6_sign_averaging_suite():
    r = run_criterion_6()
    _record("c6", r)
    ok = not r["failures"] and r["worst_slack"] >= -TOL
    _line(6, ok, f"sign-averaging inequality, 10^4 instances: "
                 f"0 failures, worst slack {r['worst_slack']:.3e}")


def test_criterion_7_determinism():
    runners = {"c1": run_criterion_1, "c2": run_criterion_2, "c3": run_criterion_3,
               "c4": run_criterion_4, "c5": run_criterion_5, "c6": run_criterion_6}
    missing = [k for k in runners if k not in _reports]
    assert not missing, f"criteria {missing} must run before the determinism check"
    mismatches = [name for name, fn in runners.items()
                  if json.dumps(fn(SEED), sort_keys=True) != _reports[name]]
    _line(7, not mismatches,
          "criteria 1-6 re-run with seed 0: "
          + ("byte-identical reports" if not mismatches
             else f"mismatch in {mismatches}"))
