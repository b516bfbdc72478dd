"""Numerical verification harness for the lifting construction.

Each check runs a batch of instances against an independent oracle or an
exact identity and returns a CheckReport.  Inequality checks use an absolute
slack tolerance of 1e-9; identity checks (biorthogonality, disjointness) are
exact because the generator formulas clamp to literal zeros.  The
sign-averaging suite (check_lemma44) lives in fbl.lemma44 and is
re-exported here.
"""

from __future__ import annotations

import numpy as np

from .fblnorm import SearchConfig, fbl_lower_bounds
from .homfun import Add, BuiltinF, BuiltinH, Scale, eval_batch
from .lemma44 import (
    LEMMA44_DIMS,
    LEMMA44_PS,
    SLACK_TOL,
    CheckReport,
    check_lemma44,
    lemma_unconditional_batch,
)
from .lifting import LiftingSystem
from .spaces import SIGN_TENSOR_CAP, ConfigError, DimensionMismatch, InputError, _rng

__all__ = [
    "SLACK_TOL",
    "CheckReport",
    "LEMMA44_PS",
    "LEMMA44_DIMS",
    "lemma_unconditional_batch",
    "check_lemma44",
    "check_normspan",
    "check_freenorm",
    "check_freenorms",
    "check_disjoint",
    "check_biorthogonal",
    "check_beta_section",
]


def _check_samples(samples: int, d: int, floats: int, remedy: str) -> None:
    """Refuse, before drawing, a negative sample count or a draw over the cap."""
    if samples < 0:
        raise ConfigError(f"samples must be >= 0, got {samples}")
    if floats > SIGN_TENSOR_CAP:
        raise ConfigError(
            f"{samples} samples in dimension {d} would need {floats} floats, "
            f"over the cap of {SIGN_TENSOR_CAP}; {remedy}"
        )


def check_biorthogonal(system: LiftingSystem) -> CheckReport:
    """The generator/biorthogonal matrix f_n(e_j*) must be exactly the identity."""
    d = system.space.dim
    F = np.stack([eval_batch(g, system.space, np.eye(d)) for g in system.generators])
    report = CheckReport(check="biorthogonal", instances=d * d,
                         config={"space": str(system.space)})
    dev = np.abs(F - np.eye(d))
    report.worst_slack = -float(dev.max())
    for n, j in zip(*np.nonzero(dev)):
        report.failures.append({"n": int(n + 1), "j": int(j + 1), "value": float(F[n, j])})
    return report


def check_disjoint(system: LiftingSystem, samples: int = 10_000, seed: int = 0) -> CheckReport:
    """Pairwise pointwise min of the generators is exactly zero at every sample."""
    d = system.space.dim
    # the draw is (samples, d), the generator values d arrays of samples
    _check_samples(samples, d, samples * (d + 1), "lower --instances")
    rng = _rng(seed, 2)
    X = rng.standard_normal((samples, d))
    # one generator at a time: each one's values keep its evaluation's
    # work buffer alive until they are copied out
    F = np.empty((d, samples))
    for n, g in enumerate(system.generators):
        F[n] = eval_batch(g, system.space, X)
    report = CheckReport(check="disjoint", instances=samples, seed=seed,
                         config={"space": str(system.space)})
    worst = 0.0
    for n in range(d):
        for l in range(n + 1, d):
            m = np.minimum(F[n], F[l])
            worst = max(worst, float(m.max(initial=0.0)))
            for i in np.nonzero(m != 0.0)[0]:
                report.failures.append(
                    {"n": n + 1, "l": l + 1, "xstar": X[i].tolist(),
                     "min_value": float(m[i])}
                )
    report.worst_slack = -worst
    return report


def check_beta_section(system: LiftingSystem, samples: int = 1000, seed: int = 0,
                       tol: float = 1e-12) -> CheckReport:
    """beta composed with the lift is the identity on random vectors.

    beta(T(x)) is the vector of T(x) = sum_n x_n f(n) at the basis
    functionals e_j*.  Those generator values G[n] = f_n(e_j*) do not
    depend on x, so they are evaluated once, and every sample is formed
    from them with the adds an Add of Scale nodes makes: from zero, in
    generator order.  So each row is bit for bit beta_apply(T_apply(x)).
    """
    space = system.space
    d = space.dim
    # the draw and the lifted values are (samples, d) each
    _check_samples(samples, d, samples * d, "use fewer samples")
    # the same values as `samples` successive draws of standard_normal(d)
    X = _rng(seed, 3).standard_normal((samples, d))
    eye = np.eye(d)
    out = np.zeros((samples, d))
    for n, g in enumerate(system.generators):
        out = out + X[:, n:n + 1] * eval_batch(g, space, eye)
    if not np.all(np.isfinite(out)):
        raise InputError("expression evaluated to a non-finite value")
    err = np.abs(out - X).max(axis=1)
    report = CheckReport(check="beta_section", instances=samples, seed=seed,
                         config={"space": str(space), "tol": tol})
    if samples:
        # tol - err falls as err grows, so its minimum is at the largest error
        report.worst_slack = float(tol - err.max())
    for i in np.flatnonzero(err > tol):
        report.failures.append({"instance": int(i), "x": X[i].tolist(), "error": float(err[i])})
    return report


def check_normspan(system: LiftingSystem, coefficients, search: SearchConfig) -> CheckReport:
    """Every tuple the searches visit respects the span-norm inequality.

    coefficients: one vector a of length d, or an (E, d) matrix of them.
    One search per vector, all in one batch over the shared generators.
    Each search's best ratio dominates all its visited ratios, so bounding
    it bounds them all: best <= norm of a, to slack 1e-9.
    """
    a = np.asarray(coefficients, dtype=np.float64)
    A = a[None] if a.ndim == 1 else a
    d = system.space.dim
    if A.ndim != 2 or A.shape[1] != d:
        raise DimensionMismatch(
            f"coefficients must have shape ({d},) or (E, {d}), got {a.shape}"
        )
    ests = fbl_lower_bounds(system.generators, A, system.space, search)
    report = CheckReport(
        # with no vectors no search runs, and the report names no seed
        check="normspan", instances=len(A), seed=search.seed if len(A) else None,
        config={"space": str(system.space), "coefficients": a.tolist(),
                "k": search.k, "restarts": search.restarts},
    )
    for row, est in zip(A, ests):
        rhs = system.space.norm(row)
        report.merge_slack(rhs - est.lower_bound)
        if est.lower_bound > rhs + SLACK_TOL:
            report.failures.append(
                {"coefficients": row.tolist(), "ratio": est.lower_bound, "norm": rhs,
                 "witness": est.witness.tolist()}
            )
    return report


def check_freenorm(system: LiftingSystem, n: int, k: int, search: SearchConfig,
                   samples: int = 1000) -> CheckReport:
    """The truncation check of one pair (n, k): check_freenorms of [(n, k)]."""
    return check_freenorms(system, [(n, k)], search, samples)[0]


def check_freenorms(system: LiftingSystem, pairs, search: SearchConfig,
                    samples: int = 1000) -> list[CheckReport]:
    """Norm of each truncation error h(n,k) - f(n) is bounded by the cutoff tail sum.

    One report per pair (n, k), in order.  The pairs with n + k < d are
    searched in one batch, one search per pair over its own difference,
    each the same as a separate fbl_lower_bound.  For n + k >= d the
    truncation equals the generator identically and the difference is
    checked to be exactly zero at random samples.
    """
    space, params = system.space, system.params
    d = space.dim
    _check_samples(samples, d, samples * d, "use fewer samples")
    reports, searched, diffs = [], [], []
    for n, k in pairs:
        diff = Add([BuiltinH(n, k, params), Scale(-1.0, BuiltinF(n, params))])
        report = CheckReport(
            check="freenorm", instances=1, seed=search.seed,
            config={"space": str(space), "n": n, "k": k},
        )
        reports.append(report)
        if n + k < d:
            searched.append(report)
            diffs.append(diff)
            continue
        X = _rng(search.seed, 4, n, k).standard_normal((samples, d))
        vals = eval_batch(diff, space, X)
        report.instances = samples
        report.worst_slack = -float(np.abs(vals).max(initial=0.0))
        for i in np.nonzero(vals != 0.0)[0]:
            report.failures.append({"xstar": X[i].tolist(), "difference": float(vals[i])})
    if diffs:
        # weight row e picks difference e alone: E searches, one term each
        ests = fbl_lower_bounds(diffs, np.eye(len(diffs)), space, search)
        for report, est in zip(searched, ests):
            n, k = report.config["n"], report.config["k"]
            bound = params.tail_bound(n + k, d)
            report.config["tail_bound"] = bound
            report.worst_slack = bound - est.lower_bound
            if est.lower_bound > bound + SLACK_TOL:
                report.failures.append(
                    {"n": n, "k": k, "ratio": est.lower_bound, "tail_bound": bound,
                     "witness": est.witness.tolist()}
                )
    return reports
