"""Workload job lists, job execution through the public API, and output checks.

Every job goes through `fbl.cli.run` (plus `fbl.upper_bound_finite_coords`
for the join job).  The checks below recompute what they verify with plain
numpy and never call back into fbl: a witness's objective, its admissibility
constant by direct sign enumeration, and the bound against the closed-form
norm (Aviles-Rodriguez-Tradacete: ||delta_x|| = ||x||_E, and the ell_1 join
|d(1,0)| v |d(0,1)| has norm 2).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import time
import traceback
from dataclasses import dataclass

import numpy as np

import fbl
import fbl.cli

WORKLOADS = ("norm_search", "lift_verify", "lemma44")

REL_TOL = 1e-12      # recomputed objective / constraint vs. the report
BOUND_TOL = 1e-9     # lower <= reference * (1 + BOUND_TOL)
GAP_FLOOR = 2.0 ** -53  # a relative gap below unit roundoff reads as exact

# norm_search delta shapes: (space, p, k, restarts, scored).  The d=8 job
# is there for its working set, (B, d, 2^(k-1)) = (512, 8, 128) doubles or
# 4 MiB per temporary; at 4 restarts its search does not converge (gaps from
# 1e-9 to 4e-2 across seeds), so its gap is checked but not scored in
# bound_digits.
DELTA_JOBS = [
    ("l1:4", 1.0, 4, 50, True),
    ("l2:4", 2.0, 4, 50, True),
    ("linf:4", math.inf, 4, 50, True),
    ("lp:3:4", 3.0, 4, 50, True),
    ("l2:8", 2.0, 8, 4, False),
]
JOIN_EXPR = "|d(1,0)| v |d(0,1)|"
JOIN_NORM = 2.0
JOIN_K, JOIN_RESTARTS = 2, 200
# four join certificates per set (different search seeds) give 27 jobs, so
# the median job is the middle l2:4 delta job, the shape whose time depends
# least on its input, and not a point between two shapes' times
JOIN_JOBS = 4
NORM_SETS = 3           # independent input sets in the norm_search job list

LIFT_SPACES = ["l1:6", "l2:6", "linf:6"]
LEMMA44_INSTANCES = 3000
LEMMA44_JOBS = 5


@dataclass
class Job:
    kind: str               # "delta", "join", "lift", "lemma44"
    argv: list
    x: np.ndarray | None = None
    p: float = 0.0
    scored: bool = True     # whether the gap enters bound_digits


@dataclass
class Result:
    elapsed: float
    ok: bool
    gap: float | None       # relative gap to the exact reference; None if unscored
    reason: str = ""
    ref_s: float = 0.0      # elapsed in reference seconds, set by the runner


class CheckFailed(Exception):
    """A report that does not match its independent recomputation."""


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's fixed job list; its inputs depend only on the seed."""
    rng = np.random.default_rng(seed)

    def cli_seed():
        return str(int(rng.integers(2**31)))

    jobs = []
    if workload == "norm_search":
        for _ in range(NORM_SETS):
            for space, p, k, restarts, scored in DELTA_JOBS:
                d = int(space.rsplit(":", 1)[1])
                x = rng.standard_normal(d)
                x /= np.linalg.norm(x, ord=p)
                expr = "d(" + ",".join(repr(float(c)) for c in x) + ")"
                jobs.append(Job("delta", ["norm", "--space", space, "--expr", expr,
                                          "--k", str(k), "--restarts", str(restarts),
                                          "--seed", cli_seed()], x=x, p=p, scored=scored))
            for _ in range(JOIN_JOBS):
                jobs.append(Job("join", ["norm", "--space", "l1:2", "--expr", JOIN_EXPR,
                                         "--k", str(JOIN_K), "--restarts", str(JOIN_RESTARTS),
                                         "--seed", cli_seed()], p=1.0))
    elif workload == "lift_verify":
        for space in LIFT_SPACES:
            jobs.append(Job("lift", ["lift-verify", "--space", space, "--seed", cli_seed()]))
    elif workload == "lemma44":
        for _ in range(LEMMA44_JOBS):
            jobs.append(Job("lemma44", ["lemma44", "--instances", str(LEMMA44_INSTANCES),
                                        "--seed", cli_seed()]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = fbl.cli.run(argv)
    return code, out.getvalue()


def run_job(job: Job) -> Result:
    t0 = time.perf_counter()
    try:
        code, text = _cli(job.argv)
        upper = None
        if job.kind == "join":
            upper = fbl.upper_bound_finite_coords(
                fbl.parse(JOIN_EXPR), fbl.parse_space("l1:2"), [1, 2]).value
    except Exception as exc:  # a crashing job is a failed op, not a crashed benchmark
        return Result(time.perf_counter() - t0, False, 1.0,
                      "".join(traceback.format_exception_only(exc)).strip())
    elapsed = time.perf_counter() - t0
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return Result(elapsed, False, 1.0, f"exit {code}, no JSON report")
    if code != 0:
        return Result(elapsed, False, 1.0, f"exit {code}: {report.get('error')}")
    check = {"delta": _check_norm, "join": _check_norm,
             "lift": _check_lift, "lemma44": _check_lemma44}[job.kind]
    try:
        gap = check(job, report, upper)
        return Result(elapsed, True, gap if job.scored else None)
    except CheckFailed as exc:
        return Result(elapsed, False, 1.0, str(exc))
    except (KeyError, TypeError, ValueError) as exc:
        return Result(elapsed, False, 1.0, f"malformed report: {exc!r}")


# ---------------------------------------------------------------------------
# independent checks; each returns the relative gap or raises CheckFailed


def _dual_exponent(p):
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def _constraint(W, p):
    """sup_{x in B_E} sum_i |x_i*(x)|, recomputed without fbl."""
    if p == 1.0:
        # ell_1: the sup is attained at a basis vector (column sums)
        return float(np.abs(W).sum(axis=0).max())
    k = W.shape[0]
    signs = np.array([(1.0,) + e for e in itertools.product((-1.0, 1.0), repeat=k - 1)])
    return float(np.linalg.norm(signs @ W, ord=_dual_exponent(p), axis=1).max())


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _check_norm(job, report, upper):
    W = np.asarray(report["witness"], dtype=np.float64)
    if job.kind == "delta":
        reference = float(np.linalg.norm(job.x, ord=job.p))
        objective = float(np.abs(W @ job.x).sum())
    else:
        reference = JOIN_NORM
        objective = float(np.maximum(np.abs(W[:, 0]), np.abs(W[:, 1])).sum())
    C = _constraint(W, job.p)
    eps = np.asarray(report["certificate_signs"], dtype=np.float64)
    C_eps = float(np.linalg.norm(eps @ W, ord=_dual_exponent(job.p)))
    lower = report["lower_bound"]
    if not _close(report["objective"], objective):
        raise CheckFailed(f"objective {report['objective']!r} != recomputed {objective!r}")
    if not _close(report["constraint"], C):
        raise CheckFailed(f"constraint {report['constraint']!r} != recomputed {C!r}")
    if not _close(C_eps, C):
        raise CheckFailed(f"certificate signs give {C_eps!r}, not the constraint {C!r}")
    if not _close(lower, objective / C):
        raise CheckFailed(f"lower bound {lower!r} != objective / constraint")
    if lower > reference * (1.0 + BOUND_TOL):
        raise CheckFailed(f"lower bound {lower!r} exceeds the exact norm {reference!r}")
    if upper is not None and upper < reference * (1.0 - BOUND_TOL):
        raise CheckFailed(f"upper bound {upper!r} below the exact norm {reference!r}")
    return max(0.0, (reference - lower) / reference)


def _freenorm_instances(d):
    # truncations with n + k >= d are checked at 1000 samples, others once
    return sum(1000 if n + k >= d else 1
               for n in range(1, d + 1) for k in range(0, d - n + 1))


def _check_lift(job, report, upper):
    d = int(job.argv[2].rsplit(":", 1)[1])
    expected = {"biorthogonal": d * d, "disjoint": 10_000, "beta_section": 1000,
                "normspan": 20, "freenorm": _freenorm_instances(d)}
    checks = {c["check"]: c for c in report["checks"]}
    if report["passed"] is not True:
        raise CheckFailed("suite did not pass")
    if set(checks) != set(expected):
        raise CheckFailed(f"checks {sorted(checks)} != {sorted(expected)}")
    for name, count in expected.items():
        if checks[name]["instances"] != count:
            raise CheckFailed(f"{name}: {checks[name]['instances']} instances, expected {count}")
        if checks[name]["failures"]:
            raise CheckFailed(f"{name}: {len(checks[name]['failures'])} failures")
    # exact identities: f_n(e_j*) = delta_nj, f_n ^ f_l = 0, beta(T x) = x
    beta = checks["beta_section"]
    return max(-checks["biorthogonal"]["worst_slack"], -checks["disjoint"]["worst_slack"],
               beta["config"]["tol"] - beta["worst_slack"], 0.0)


def _check_lemma44(job, report, upper):
    if report["failures"]:
        raise CheckFailed(f"{len(report['failures'])} failures")
    if report["instances"] != LEMMA44_INSTANCES:
        raise CheckFailed(f"{report['instances']} instances, expected {LEMMA44_INSTANCES}")
    if report["config"] != {"max_l": 6, "space": None}:
        raise CheckFailed(f"unexpected config {report['config']}")
    # the inequality lhs <= rhs: a negative worst slack is a (tolerated) miss
    return max(0.0, -report["worst_slack"])


def digits(gap: float) -> float:
    """-log10 of a relative gap, floored at unit roundoff."""
    return -math.log10(max(gap, GAP_FLOOR))
