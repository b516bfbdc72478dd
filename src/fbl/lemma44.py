"""The sign-averaging inequality of Lemma 4.4 as a randomized property suite.

For functionals x_1*, ..., x_l* in the dual unit ball of an ell_p space
and basis indices m_1, ..., m_l, the dual norm of
sum_i |x_i*(e_{m_i})| e_{m_i}*, with e_m* the functionals biorthogonal to
the basis, is at most the tuple constraint sup_{x in B} sum_i |x_i*(x)|.
check_lemma44 draws random instances and checks both sides, each from its
own code path; this module loads only spaces and kernels, so the lemma44
command runs without the expression, search and lifting modules.
CheckReport, the report of every check, and the slack tolerance live here
for the same reason.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels, spaces
from .spaces import (
    BasisIndexError,
    ConfigError,
    DimensionMismatch,
    Space,
    _rng,
    check_finite_functionals,
    check_seed,
    check_sign_tensor,
    check_tuple_size,
    l1_extreme_point_constraint,
)

__all__ = [
    "SLACK_TOL",
    "CheckReport",
    "LEMMA44_PS",
    "LEMMA44_DIMS",
    "lemma_unconditional_batch",
    "check_lemma44",
]

SLACK_TOL = 1e-9

# the exponents and the dimension range (both ends included) that
# check_lemma44 draws each instance's space from when no space is given
LEMMA44_PS = (1.0, 1.5, 2.0, 3.0, math.inf)
LEMMA44_DIMS = (2, 8)


@dataclass
class CheckReport:
    check: str
    instances: int
    failures: list = field(default_factory=list)
    worst_slack: float | None = None
    seed: int | None = None
    config: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def merge_slack(self, slack: float):
        if self.worst_slack is None or slack < self.worst_slack:
            self.worst_slack = slack

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def lemma_unconditional_batch(space: Space, ms, functionals) -> tuple[np.ndarray, np.ndarray]:
    """A stack of n instances of the sign-averaging inequality.

    functionals: (n, l, d), instance t the tuple functionals[t]; ms: (n, l)
    its basis indices.  Left side: dual norm of sum_i |x_i*(e_{m_i})| e_{m_i}*;
    right side: the tuple constraint sup_{x in B} sum_i |x_i*(x)|.
    Functionals must be finite and lie in the dual unit ball.  The two
    sides use independent code paths (closed-form dual norm of the sums
    vs. sign-cube enumeration), the ones check_lemma44 evaluates its d
    blocks with; both take their norms, like the dual-ball check, from
    kernels._dual_norms.  Each instance's (lhs, rhs) has the bits it has
    alone, and both are float64, with no instances too.
    """
    X = np.asarray(functionals, dtype=np.float64)
    ms = np.asarray(ms)
    if X.ndim != 3 or X.shape[2] != space.dim:
        raise DimensionMismatch(
            f"functionals must have shape (n, l, {space.dim}), got {X.shape}"
        )
    n, l, d = X.shape
    if ms.shape != (n, l):
        raise DimensionMismatch(f"indices must have shape {(n, l)}, got {ms.shape}")
    check_tuple_size(l)
    check_sign_tensor(kernels.pattern_elements(n, l, d), "use fewer functionals")
    if ms.size and not (ms.dtype.kind in "iu" and 1 <= ms.min() and ms.max() <= d):
        raise BasisIndexError(f"basis indices must be integers in 1..{d}")
    check_finite_functionals(X)
    if not (kernels._dual_norms(X, space.q) <= 1.0 + SLACK_TOL).all():
        raise ConfigError("functionals must lie in the dual unit ball")
    return _lemma_sides(X.reshape(-1, d), ms.astype(np.intp).ravel(), np.full(n, l),
                        [(space, slice(None), [X])])


def _lemma_sides(rows, ms, ls, parts) -> tuple[np.ndarray, np.ndarray]:
    """lhs and rhs of the sign-averaging inequality for the instances whose
    tuples are the rows (sum(ls), d) of rows, instance after instance.

    ms: (sum(ls),) each row's basis index; ls: each instance's tuple size;
    parts: the runs of instances that share a space, in order, as
    _lemma44_draws yields them: (space, slice of the instances, stacks),
    the stacks (n_g, l, d) of the run's rows, one per run of instances
    with the same l.  The left sides take one bincount and one norm call
    per part, the right sides one kernels.pattern_norms pass per part and
    one reduceat, each tuple's maximum over its sign patterns.  Every norm
    runs row by row, so each instance's values have the bits it has alone.
    """
    n, d = len(ls), rows.shape[1]
    # entry (t, m) of z adds |x_i*(e_m)| over instance t's functionals i
    # with index m.  bincount adds in input order from 0.0, so each entry
    # is a sum in the order of the tuple.  With no instances bincount
    # returns int64 whatever its weights, so z is made float64 here
    z = np.bincount(np.repeat(np.arange(-1, n * d - 1, d), ls) + ms,
                    np.abs(np.take(rows, np.arange(-1, rows.size - 1, d) + ms)), n * d)
    z = z.reshape(n, d).astype(np.float64, copy=False)
    lhs = np.concatenate([kernels._dual_norms(z[at], space.q, out=z[at])
                          for space, at, _ in parts])
    norms = np.concatenate([kernels.pattern_norms(stacks, space.q) for space, _, stacks in parts])
    if not n:  # reduceat refuses empty offsets
        return lhs, norms
    # each tuple's maximum over its 2^(l-1) sign patterns, from its first
    counts = 1 << (ls - 1)
    return lhs, np.maximum.reduceat(norms, np.cumsum(counts) - counts)


def _lemma44_draws(space: Space | None, streams, lo: int, hi: int, max_l: int):
    """The instances lo..hi-1 of check_lemma44, in d blocks of (p, d, l) groups.

    streams: the five generators of check_lemma44, one per drawn quantity:
    each instance's exponent (an index into LEMMA44_PS) and dimension d
    (both without a space), its tuple size l, its l * d normals (l rows of
    d) and its l basis indices.  One call per stream draws them for the
    whole block, instance after instance, and each stream goes on where
    the last block left it, so an instance's values do not depend on the
    block size.

    Yields one tuple (members, ls, rows, ms, parts) per dimension d: its
    instances' numbers, part after part, group after group and each
    group in instance order; their tuple sizes; their functionals, the
    rows (sum(ls), d), instance after instance, each divided by its dual
    norm where that is above 1; each row's basis index; and one part
    (space, instances, stacks) per exponent: its space, the slice of its
    instances and its (n_g, l, d) stacks of rows, one per group, views of
    the rows.  A d block's rows are gathered and scaled, for all its
    exponents at once, when it is reached, so only the d block in hand
    holds a copy of its normals.
    """
    n = hi - lo
    exponents, dims, sizes, normals, indices = streams
    if space is None:
        pis = exponents.integers(len(LEMMA44_PS), size=n)
        ds = dims.integers(LEMMA44_DIMS[0], LEMMA44_DIMS[1] + 1, size=n)
    else:
        pis, ds = np.zeros(n, dtype=np.int64), np.full(n, space.dim)
    d0 = space.dim if space else LEMMA44_DIMS[0]
    ls = sizes.integers(1, max_l + 1, size=n)
    # each row's dimension, instance after instance
    row_ds = np.repeat(ds, ls)
    coords = normals.standard_normal(int(row_ds.sum()))
    ms = indices.integers(1, row_ds + 1)
    # each row's first coordinate, instance after instance
    row_starts = np.cumsum(row_ds) - row_ds
    row_ds = None
    # the instances group after group, each group in instance order.  The
    # keys stay under 35 * 25, so as int16 they take numpy's radix sort
    keys = (((ds - d0) * len(LEMMA44_PS) + pis) * (max_l + 1) + ls).astype(np.int16)
    pis = ds = None
    order = np.argsort(keys, kind="stable")
    first_row = (np.cumsum(ls) - ls)[order]
    keys, ls = keys[order], ls[order]
    # instance t's rows in that order are edges[t]..edges[t+1]-1, and
    # src[k] is the number of row k in instance order
    edges = np.concatenate([[0], np.cumsum(ls)])
    src = np.repeat(first_row - edges[:-1], ls)
    src += np.arange(edges[-1])
    # one gather at a time, so the old ms is freed before starts is built
    ms = ms[src]
    starts = row_starts[src]
    src = row_starts = None
    # a (p, d, l) group starts where the key changes; each (p, d) part's
    # group edges, as (instance, row) pairs, by d, part after part
    cuts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), n]
    bounds = list(zip(cuts, edges[cuts].tolist()))
    blocks = {}
    for g0, g1, key in zip(bounds, bounds[1:], keys[cuts[:-1]].tolist()):
        d, pi = divmod(key // (max_l + 1), len(LEMMA44_PS))
        blocks.setdefault(d0 + d, {}).setdefault(pi, [g0]).append(g1)
    keys = edges = None
    for d, inner in blocks.items():
        parts = [(space or Space.lp(LEMMA44_PS[pi], d), cut) for pi, cut in inner.items()]
        (b0, r0), (b1, r1) = parts[0][1][0], parts[-1][1][-1]
        # row k of window views the d coordinates from coordinate k on
        # (sliding_window_view makes the same view, but its reference
        # cycles wait for the cyclic collector, and over repeated runs
        # they raised the process's peak memory)
        window = np.ndarray((coords.size - d + 1, d), buffer=coords, strides=(8, 8))
        rows = window[starts[r0:r1]]
        # each row into its space's dual unit ball, one norm call per exponent
        norms = np.concatenate([kernels._dual_norms(rows[cut[0][1] - r0:cut[-1][1] - r0], sp.q)
                                for sp, cut in parts])
        rows /= np.maximum(1.0, norms)[:, None]
        yield lo + order[b0:b1], ls[b0:b1], rows, ms[r0:r1], [
            (sp, slice(cut[0][0] - b0, cut[-1][0] - b0),
             [rows[s0 - r0:s1 - r0].reshape(g1 - g0, -1, d)
              for (g0, s0), (g1, s1) in zip(cut, cut[1:])])
            for sp, cut in parts]


def check_lemma44(
    space: Space | None = None,
    instances: int = 1000,
    max_l: int = 6,
    seed: int = 0,
) -> CheckReport:
    """Randomized suite for the sign-averaging inequality.

    With `space` given, dimension and exponent are fixed; otherwise each
    instance draws them from LEMMA44_PS x LEMMA44_DIMS.  Every ell_1
    instance additionally cross-checks the sign-cube constraint against the
    extreme-point formula.  Each drawn quantity has its own stream,
    SeedSequence(seed, spawn_key=(1, j)) for j = 0..4: exponent,
    dimension, tuple size, normals and basis indices, which every instance
    draws from in turn.  The instances are drawn in blocks of as many as
    keep the draws and their evaluation, sign-cube norms included, under
    the cap, each block with one call per stream.  A block's instances are
    evaluated one dimension d at a time.  Per exponent, the draws scale
    its functionals into the dual unit ball with one norm call, and the
    routine lemma_unconditional_batch uses takes one norm call for their
    left sides and one sign-cube pass of kernels.pattern_norms over all
    its (p, d, l) groups.  Per d, that routine takes one bincount for the
    left sides' sums and one reduceat for the right sides, and the suite
    one slack minimum and one scan for failures.  Failures are listed in
    instance order, an instance's inequality failure before its oracle
    one.
    """
    check_tuple_size(max_l)
    if instances < 0:
        raise ConfigError(f"instances must be >= 0, got {instances}")
    if instances > 2**32:
        raise ConfigError(f"instances must be at most 2^32, got {instances}")
    check_seed(seed)
    d_max = space.dim if space else LEMMA44_DIMS[1]
    # per instance, a block keeps its normals in instance order (max_l *
    # d_max numbers at most) and their basis indices from the draw on.
    # Besides them it holds while drawing at most 4 * max_l + 6 numbers
    # (keys, order, row starts and gather indices); then while evaluating
    # the gathered normals of the d block in hand, for all its exponents,
    # and three copies of them (the temporaries of one exponent's norms,
    # then the ell_1 oracle's), at most 3 * max_l + 4 * d_max + 6 numbers
    # (the scaling's norms, then the bincount keys, z and its norm's three
    # temporaries, lhs and rhs with their parts) and its share of the d
    # block's sign-cube passes, one per exponent, which hold what
    # pattern_norms holds for all the block's instances at once, each
    # counted here at max_l.  It counts the sum of both phases, whose
    # peaks tracemalloc measures below it.
    # The sign patterns are held once
    patterns = kernels.pattern_elements(0, max_l, d_max)
    per_instance = (kernels.pattern_elements(1, max_l, d_max) - patterns + 5 * max_l * d_max
                    + 8 * max_l + 4 * d_max + 12)
    check_sign_tensor(patterns + per_instance, "lower --l")
    report = CheckReport(
        check="lemma44",
        instances=instances,
        seed=seed,
        config={"max_l": max_l, "space": str(space) if space else None},
    )
    failures = []  # (instance, 0 for the inequality or 1 for the oracle, entry)
    block = (spaces.SIGN_TENSOR_CAP - patterns) // per_instance
    streams = [_rng(seed, 1, j) for j in range(5)]
    for lo in range(0, instances, block):
        for members, ls, rows, ms, parts in _lemma44_draws(
                space, streams, lo, min(lo + block, instances), max_l):
            lhs, rhs = _lemma_sides(rows, ms, ls, parts)
            report.merge_slack(float((rhs - lhs).min()))
            for t in np.flatnonzero(lhs > rhs + SLACK_TOL):
                sp = next(sp for sp, at, _ in parts if t < at.stop)
                tuple_rows = slice(ls[:t].sum(), ls[:t + 1].sum())
                failures.append((members[t], 0, {
                    "instance": int(members[t]), "space": str(sp),
                    "lhs": float(lhs[t]), "rhs": float(rhs[t]),
                    "ms": ms[tuple_rows].tolist(), "functionals": rows[tuple_rows].tolist()}))
            for sp, at, stacks in parts:
                if sp.p != 1.0:
                    continue
                oracle = np.concatenate([l1_extreme_point_constraint(S) for S in stacks])
                # both sides add the same l terms |x_i*(e_j)| in orders that
                # depend on the BLAS; each sum is within (l-1)*2^-53 relative
                # of the exact one, so they may differ by l*2^-52*oracle, no more
                bad = np.abs(rhs[at] - oracle) > ls[at] * 2.0**-52 * oracle
                for t in at.start + np.flatnonzero(bad):
                    failures.append((members[t], 1, {
                        "instance": int(members[t]), "space": str(sp),
                        "constraint": float(rhs[t]),
                        "extreme_point_oracle": float(oracle[t - at.start]),
                        "kind": "oracle-mismatch"}))
    failures.sort(key=lambda f: f[:2])
    report.failures = [entry for *_, entry in failures]
    return report
