"""Numerical verification harness for the lifting construction.

Each check runs a batch of instances against an independent oracle or an
exact identity and returns a CheckReport.  Inequality checks use an absolute
slack tolerance of 1e-9; identity checks (biorthogonality, disjointness) are
exact because the generator formulas clamp to literal zeros.  lift_verify
runs the five lifting checks as one suite, the lift-verify command's.  The
sign-averaging suite (check_lemma44) lives in fbl.lemma44 and is
re-exported here.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import replace

import numpy as np

from . import kernels, spaces
from .fblnorm import SearchConfig, fbl_lower_bounds, search_elements
from .homfun import Add, BuiltinF, BuiltinH, Scale, eval_batch, eval_terms, finite
from .lemma44 import SLACK_TOL, CheckReport, check_lemma44
from .lifting import LiftingSystem
from .spaces import ConfigError, DimensionMismatch, _rng, check_sign_tensor

__all__ = [
    "SLACK_TOL",
    "CheckReport",
    "check_lemma44",
    "lift_verify",
    "check_normspan",
    "check_freenorm",
    "check_freenorms",
    "check_disjoint",
    "check_biorthogonal",
    "check_beta_section",
]

# the samples of check_beta_section and of check_freenorms' unsearched pairs
CHECK_SAMPLES = 1000
# the largest |beta(T(x))_j - x_j| that check_beta_section accepts
BETA_TOL = 1e-12


def _check_samples(samples: int, d: int, floats: int, remedy: str,
                   name: str = "samples") -> None:
    """Refuse, before drawing, a negative count `name` or a draw over the cap."""
    if samples < 0:
        raise ConfigError(f"{name} must be >= 0, got {samples}")
    check_sign_tensor(floats, remedy, f"{samples} samples in dimension {d}")


# float64 elements a sample holds at each sampled check's peak, (a, b) for
# a*d + b (tracemalloc).  disjoint: the draw, the d generators' values and
# one hom_batch buffer of d + 1 rows; beta_section: the draw and three sums;
# freenorm: the draw, a pair's hom_batch buffer of d + 1 rows and four sums
# (three from 256 KB on, where numpy reuses a temporary); normspan: a
# coefficient vector, drawn and listed in the check's config
SAMPLE_FLOATS = {"disjoint": (3, 3), "beta_section": (4, 1), "freenorm": (2, 5),
                 "normspan": (5, 8)}


def _sample_floats(check: str, samples: int, d: int) -> int:
    a, b = SAMPLE_FLOATS[check]
    return samples * (a * d + b)


def check_biorthogonal(system: LiftingSystem) -> CheckReport:
    """The generator/biorthogonal matrix f_n(e_j*) must be exactly the identity."""
    d = system.space.dim
    F = np.stack(eval_terms(system.generators, system.space, np.eye(d)))
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
    _check_samples(samples, d, _sample_floats("disjoint", samples, d), "lower --instances")
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


def check_beta_section(system: LiftingSystem, seed: int = 0) -> CheckReport:
    """beta composed with the lift is the identity on CHECK_SAMPLES random vectors.

    A deviation up to BETA_TOL in a coordinate passes.  beta(T(x)) is the
    vector of T(x) = sum_n x_n f(n) at the basis functionals e_j*.  Those
    generator values G[n] = f_n(e_j*) do not depend on x, so they are
    evaluated once, and every sample is formed from them with the adds an
    Add of Scale nodes makes: from zero, in generator order.  So each row
    is bit for bit beta_apply(T_apply(x)).
    """
    space = system.space
    d = space.dim
    # the same values as CHECK_SAMPLES successive draws of standard_normal(d)
    X = _rng(seed, 3).standard_normal((CHECK_SAMPLES, d))
    G = eval_terms(system.generators, space, np.eye(d))
    out = np.zeros((CHECK_SAMPLES, d))
    for n in range(d):
        out = out + X[:, n:n + 1] * G[n]
    # no per-row reduction: a row's error, the max of its deviations, is
    # taken only for the failing rows, and the worst slack at the largest
    dev = np.abs(finite(out) - X)
    report = CheckReport(check="beta_section", instances=CHECK_SAMPLES, seed=seed,
                         config={"space": str(space), "tol": BETA_TOL})
    report.worst_slack = float(BETA_TOL - dev.max())
    # each failing row once, in order; np.unique would import numpy.ma
    # (about 17 ms) in every forked lift-verify child
    for i in dict.fromkeys(np.flatnonzero(dev > BETA_TOL) // d):
        report.failures.append({"instance": int(i), "x": X[i].tolist(),
                                "error": float(dev[i].max())})
    return report


def check_normspan(system: LiftingSystem, coefficients, search: SearchConfig) -> CheckReport:
    """Every tuple the searches visit respects the span-norm inequality.

    coefficients: an (E, d) matrix, one vector a per row.  One search per
    vector, all in one batch over the shared generators.  Each search's
    best ratio dominates all its visited ratios, so bounding it bounds
    them all: best <= norm of a, to slack 1e-9.
    """
    A = np.asarray(coefficients, dtype=np.float64)
    d = system.space.dim
    if A.ndim != 2 or A.shape[1] != d:
        raise DimensionMismatch(f"coefficients must have shape (E, {d}), got {A.shape}")
    ests = fbl_lower_bounds(system.generators, A, system.space, search)
    report = CheckReport(
        # with no vectors no search runs, and the report names no seed
        check="normspan", instances=len(A), seed=search.seed if len(A) else None,
        config={"space": str(system.space), "coefficients": A.tolist(),
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


def check_freenorm(system: LiftingSystem, n: int, k: int, search: SearchConfig) -> CheckReport:
    """The truncation check of one pair (n, k): check_freenorms of [(n, k)]."""
    return check_freenorms(system, [(n, k)], search)[0]


def check_freenorms(system: LiftingSystem, pairs, search: SearchConfig) -> list[CheckReport]:
    """Norm of each truncation error h(n,k) - f(n) is bounded by the cutoff tail sum.

    One report per pair (n, k), in order, with its tail bound in its config
    and the bound less a ratio as its slack.  The pairs with n + k < d are
    searched in one batch, one search per pair over its own difference,
    each the same as a separate fbl_lower_bound, whose ratio it takes.
    For n + k >= d the truncation equals the generator identically: the
    difference is checked to be exactly zero at CHECK_SAMPLES random
    samples, and the ratio is the largest |difference(x*)| / ||x*||_{E*}
    where it is not.
    """
    space, params = system.space, system.params
    d = space.dim
    reports, searched, diffs = [], [], []
    for n, k in pairs:
        diff = Add([BuiltinH(n, k, params), Scale(-1.0, BuiltinF(n, params))])
        bound = params.tail_bound(n + k, d)
        report = CheckReport(
            check="freenorm", instances=1, seed=search.seed,
            config={"space": str(space), "n": n, "k": k, "tail_bound": bound},
        )
        reports.append(report)
        if n + k < d:
            searched.append((report, n, k, bound))
            diffs.append(diff)
            continue
        X = _rng(search.seed, 4, n, k).standard_normal((CHECK_SAMPLES, d))
        vals = eval_batch(diff, space, X)
        rows = vals.nonzero()[0]
        ratios = np.abs(vals[rows]) / kernels._dual_norms(X[rows], space.q)
        report.instances = CHECK_SAMPLES
        report.worst_slack = bound - float(ratios.max(initial=0.0))
        for i in rows:
            report.failures.append({"xstar": X[i].tolist(), "difference": float(vals[i])})
    if diffs:
        # weight row e picks difference e alone: E searches, one term each
        ests = fbl_lower_bounds(diffs, np.eye(len(diffs)), space, search)
        for (report, n, k, bound), est in zip(searched, ests):
            report.worst_slack = bound - est.lower_bound
            if est.lower_bound > bound + SLACK_TOL:
                report.failures.append(
                    {"n": n, "k": k, "ratio": est.lower_bound, "tail_bound": bound,
                     "witness": est.witness.tolist()}
                )
    return reports


def lift_verify(system: LiftingSystem, search: SearchConfig, instances: int,
                coeff_vectors: int) -> list[CheckReport]:
    """The biorthogonal, disjoint, beta_section, normspan and freenorm reports.

    check_disjoint draws `instances` samples, check_normspan searches
    coeff_vectors vectors from the stream _rng(search.seed, 9), and the
    freenorm report merges the pairs (n, k) with n + k <= d.  Every check
    draws from search.seed.  The span-norm batch, the longest check, runs
    here and the others beside it (see _beside).
    """
    space = system.space
    d = space.dim
    pairs = [(n, k) for n in range(1, d + 1) for k in range(d - n + 1)]
    instance_floats = _sample_floats("disjoint", instances, d)
    coefficient_floats = _sample_floats("normspan", coeff_vectors, d)
    # refused here, in the order the checks would refuse them, so that no
    # check runs before a refusal on either path of _beside; an M sequence
    # too short for the space fails every check's first evaluation
    system.params.arrays(d)
    _check_samples(instances, d, instance_floats, "lower --instances")
    _check_samples(coeff_vectors, d, coefficient_floats, "lower --coeff-vectors",
                   "--coeff-vectors")

    def span():
        coefficients = _rng(search.seed, 9).standard_normal((coeff_vectors, d))
        # the suite report leaves out the per-check config (the coefficients)
        return replace(check_normspan(system, coefficients, search), config={})

    def others():
        return [
            check_biorthogonal(system),
            check_disjoint(system, samples=instances, seed=search.seed),
            check_beta_section(system, seed=search.seed),
            _merge(check_freenorms(system, pairs, search), "freenorm"),
        ]

    # the counted peaks, in float64 elements, of the checks on each side:
    # a check's samples or its search batch (the pairs with n + k < d)
    span_peak = coefficient_floats + search_elements(space, search, coeff_vectors)
    searched = sum(n + k < d for n, k in pairs)
    others_peak = max(instance_floats, _sample_floats("beta_section", CHECK_SAMPLES, d),
                      _sample_floats("freenorm", CHECK_SAMPLES, d),
                      search_elements(space, search, searched))
    normspan, reports = _beside(others, span, span_peak + others_peak)
    reports.insert(3, normspan)
    return reports


class _ChildTraceback(Exception):
    """The traceback, as text, of an exception raised in a forked child."""


def _beside(background, foreground, elements):
    """(foreground(), background()), the latter in a forked child meanwhile.

    The child runs only where os.fork and os.sched_getaffinity exist, at
    least 2 CPUs are usable and both sides' counted peaks together
    (elements) fit under SIGN_TENSOR_CAP; otherwise, or if no process can
    be forked, both run here, one after the other.  Either way the results
    and the errors are the same: the foreground's exception comes first
    (the child is then killed), and the child's is raised here with its
    type, message and attributes.  The child sends its result pickled on
    a pipe and leaves only through os._exit, so it runs no exit handlers
    and flushes no inherited buffers.  More work joins the child by
    joining background.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and elements <= spaces.SIGN_TENSOR_CAP):
        return foreground(), background()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read_fd)
        os.close(write_fd)
        return foreground(), background()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                result = (True, background(), None)
            except BaseException as exc:
                import traceback
                result = (False, exc, traceback.format_exc())
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(result, pipe)
            code = 0
        finally:
            os._exit(code)

    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            mine = foreground()
            # to the end before the wait: a result that fills the pipe
            # buffer holds the child until it is read
            data = pipe.read()
    except BaseException:
        import signal
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status = os.waitpid(pid, 0)
    if status or not data:
        raise ChildProcessError(f"the forked check exited without a result "
                                f"(wait status {status})")
    ok, value, trace = pickle.loads(data)
    if not ok:
        raise value from _ChildTraceback(trace)
    return mine, value


def _merge(reports, name):
    merged = CheckReport(check=name, instances=0)
    for r in reports:
        merged.instances += r.instances
        merged.failures.extend(r.failures)
        if r.worst_slack is not None:
            merged.merge_slack(r.worst_slack)
        merged.seed = r.seed
    return merged
