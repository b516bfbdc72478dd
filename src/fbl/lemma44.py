"""The sign-averaging inequality of Lemma 4.4 as a randomized property suite.

For functionals x_1*, ..., x_l* in the dual unit ball of an ell_p space
and basis indices m_1, ..., m_l, the dual norm of
sum_i |x_i*(e_{m_i})| e_{m_i}*, with e_m* the functionals biorthogonal to
the basis, is at most the tuple constraint sup_{x in B} sum_i |x_i*(x)|.  check_lemma44 draws random instances and
checks both sides, each from its own code path; this module loads only
spaces and kernels, so the lemma44 command runs without the expression,
search and lifting modules.  CheckReport, the report of every check, and
the slack tolerance live here for the same reason.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels
from .spaces import (
    SIGN_CUBE_CAP,
    SIGN_TENSOR_CAP,
    BasisIndexError,
    ConfigError,
    DimensionMismatch,
    InputError,
    Space,
    _lp_norm,
    check_sign_tensor,
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


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def lemma_unconditional_batch(space: Space, ms, functionals) -> tuple[np.ndarray, np.ndarray]:
    """A stack of n instances of the sign-averaging inequality.

    functionals: (n, l, d), instance t the tuple functionals[t]; ms: (n, l)
    its basis indices.  Left side: dual norm of sum_i |x_i*(e_{m_i})| e_{m_i}*;
    right side: the tuple constraint sup_{x in B} sum_i |x_i*(x)|.
    Functionals must be finite and lie in the dual unit ball.  The two
    sides use independent code paths (closed-form dual norm vs. sign-cube
    enumeration), the ones check_lemma44 evaluates its (p, d) blocks with.
    Each instance's (lhs, rhs) has the bits it has alone.
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
    if not 1 <= l <= SIGN_CUBE_CAP:
        raise ConfigError(f"tuple size must be in 1..{SIGN_CUBE_CAP}, got {l}")
    check_sign_tensor(kernels.pattern_elements(n, l, d), "use fewer functionals")
    if ms.size and not (ms.dtype.kind in "iu" and 1 <= ms.min() and ms.max() <= d):
        raise BasisIndexError(f"basis indices must be integers in 1..{d}")
    if not np.isfinite(X).all():
        raise InputError("functionals must be finite")
    if not (_lp_norm(X, space.q) <= 1.0 + SLACK_TOL).all():
        raise ConfigError("functionals must lie in the dual unit ball")
    return _lemma_sides(space, X.reshape(-1, d), ms.astype(np.intp).ravel(), np.full(n, l), [X])


def _lemma_sides(space: Space, rows, ms, ls, stacks) -> tuple[np.ndarray, np.ndarray]:
    """lhs and rhs of the sign-averaging inequality for the instances whose
    tuples are the rows (sum(ls), d) of rows, instance after instance.

    ms: (sum(ls),) each row's basis index; ls: each instance's tuple size;
    stacks: the (n_g, l, d) stacks of rows, one per run of instances with
    the same l, in order.  Every norm runs row by row, so each instance's
    values have the bits it has alone.
    """
    n, d = len(ls), space.dim
    # entry (t, m) of z adds |x_i*(e_m)| over instance t's functionals i
    # with index m.  bincount adds in input order from 0.0, so each entry
    # is a sum in the order of the tuple
    z = np.bincount(np.repeat(np.arange(-1, n * d - 1, d), ls) + ms,
                    np.abs(np.take(rows, np.arange(-1, rows.size - 1, d) + ms)), n * d)
    lhs = _lp_norm(z.reshape(n, d), space.q)
    return lhs, np.concatenate([
        kernels.pattern_norms(S, kernels.sign_patterns(S.shape[1]), space.q).max(axis=-1)
        for S in stacks])


def _lemma44_generator_draws(space: Space | None, seed: int, i: int, max_l: int):
    """Instance i's key (index into LEMMA44_PS, d, l), its l * d normals
    and its l basis indices, drawn with numpy's Generator calls in the
    order the test oracle makes them."""
    rng = _rng(seed, 1, i)
    if space is None:
        pi = int(rng.integers(len(LEMMA44_PS)))
        d = int(rng.integers(LEMMA44_DIMS[0], LEMMA44_DIMS[1] + 1))
    else:
        pi, d = 0, space.dim
    l = int(rng.integers(1, max_l + 1))
    return (pi, d, l), rng.standard_normal(l * d), rng.integers(1, d + 1, size=l)


def _lemma44_draws(space: Space | None, seed: int, lo: int, hi: int, max_l: int, d_max: int):
    """The instances lo..hi-1 of check_lemma44, drawn one stream each, in
    (p, d) blocks of (p, d, l) groups.

    Returns one tuple (index into LEMMA44_PS, d, members, ls, rows, ms,
    stacks) per (p, d) block: its instances' numbers, group after group
    and each group in instance order; their tuple sizes; their
    raw functionals, the rows (sum(ls), d), instance after instance; each
    row's basis index; and the (n_g, l, d) stacks of rows, one per group.
    The blocks' rows are views of one buffer of the normals, their ms of
    one array of the indices, and the stacks views of the rows.

    Every value is the one _lemma44_generator_draws gives.  The key words
    come from kernels.pcg64_take, which computes the first outputs of
    every stream of the block in one pass and the seed that starts each
    stream right after them.  The bounded draws are decoded from those and
    from the raw outputs after the normals with kernels.bounded_draws,
    each for the whole block.  Only the normals are drawn with a
    Generator (kernels.pcg64_normals), straight into the instance's rows.  An
    instance with a key word numpy would reject (probability below 2^-29
    per draw) takes its key and normals from the Generator calls, and one
    with a rejected index word its indices.
    """
    n = hi - lo
    # numpy takes one 32-bit word per bounded draw from more than one
    # value: the low half of a fresh 64-bit output, or the high half kept
    # from the last one.  Without --space the key takes both halves of one
    # output, and l takes the low half of the next when max_l > 1, whose
    # high half the first index takes; the other index words come after
    # the normals.
    kept = int(max_l > 1)
    # instance i draws from SeedSequence(seed, spawn_key=(1, i))
    head, states = kernels.pcg64_take(kernels.sibling_states(seed, (1,), lo, hi),
                                      int(space is None) + kept)
    keys = np.empty((n, 3), dtype=np.int64)
    ok = np.ones(n, dtype=bool)
    if space is None:
        keys[:, 0], ok = kernels.bounded_draws(head[:, 0] & 0xFFFFFFFF,
                                               np.uint64(len(LEMMA44_PS)))
        keys[:, 1], ok_d = kernels.bounded_draws(
            head[:, 0] >> 32, np.uint64(LEMMA44_DIMS[1] - LEMMA44_DIMS[0] + 1))
        keys[:, 1] += LEMMA44_DIMS[0]
        ok &= ok_d
    else:
        keys[:, :2] = 0, space.dim
    if kept:
        keys[:, 2], ok_l = kernels.bounded_draws(head[:, -1] & 0xFFFFFFFF, np.uint64(max_l))
        keys[:, 2] += 1
        ok &= ok_l
    else:
        keys[:, 2] = 1  # a one-value range takes no word
    redrawn = {}
    for t in np.flatnonzero(~ok).tolist():
        keys[t], redrawn[t], _ = _lemma44_generator_draws(space, seed, lo + t, max_l)
    # the instances group after group, each group in instance order
    order = np.argsort((keys[:, 0] * (d_max + 1) + keys[:, 1]) * (max_l + 1) + keys[:, 2],
                       kind="stable")
    keys, states, ok = keys[order], states[order], ok[order]
    # a (p, d) block starts where p or d changes
    new_block = (keys[1:, :2] != keys[:-1, :2]).any(axis=1)
    block_edges = [0, *(np.flatnonzero(new_block) + 1).tolist(), n]
    ds, ls = keys[:, 1], keys[:, 2]
    first_coord = np.concatenate([[0], np.cumsum(ds * ls)])
    coords = np.empty(first_coord[-1])
    # each instance's normals, the same values as standard_normal((l, d)),
    # then the outputs that hold its index words
    fresh = (ls + 1 - kept) // 2
    words = kernels.pcg64_normals(states, ds * ls, fresh, coords)
    states = None
    for rank in np.flatnonzero(~ok).tolist():
        coords[first_coord[rank]:first_coord[rank + 1]] = redrawn[int(order[rank])]
    # index word j of an instance is the high half of the output l took
    # from for j = 0 if max_l > 1, else fresh word j - kept (a one-value
    # range, d = 1, takes none, but decodes from any word)
    x = kernels.pcg64_word_runs(head[order, -1] if kept else None, words, fresh, ls)
    head = words = None
    values, accepted = kernels.bounded_draws(x, np.repeat(ds.astype(np.uint32), ls))
    x = None
    indices = values.astype(np.int32)
    indices += 1
    values = None
    first_row = np.concatenate([[0], np.cumsum(ls)])
    starts = first_row[:-1]
    # the instances redrawn for their key or with a rejected index word
    ok &= np.logical_and.reduceat(accepted, starts)
    for rank in np.flatnonzero(~ok).tolist():
        _, _, ms = _lemma44_generator_draws(space, seed, lo + int(order[rank]), max_l)
        indices[starts[rank]:starts[rank] + len(ms)] = ms
    # the (p, d) blocks, each a run of (p, d, l) groups
    blocks = []
    for b0, b1 in zip(block_edges[:-1], block_edges[1:]):
        pi, d = keys[b0, :2].tolist()
        inner = [b0, *(np.flatnonzero(ls[b0 + 1:b1] != ls[b0:b1 - 1]) + b0 + 1).tolist(), b1]
        stacks = [coords[first_coord[g0]:first_coord[g1]].reshape(g1 - g0, -1, d)
                  for g0, g1 in zip(inner[:-1], inner[1:])]
        blocks.append((pi, d, lo + order[b0:b1], ls[b0:b1],
                       coords[first_coord[b0]:first_coord[b1]].reshape(-1, d),
                       indices[first_row[b0]:first_row[b1]], stacks))
    return blocks


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
    extreme-point formula.  Each instance is drawn from its own stream,
    SeedSequence(seed, spawn_key=(1, i)) for instance i, and a block's
    streams are seeded in one vectorised pass, in blocks of as many
    instances as keep pattern_norms at its peak, the draws, their
    evaluation and the stream seeds under the cap.  A block's instances are
    evaluated one (p, d) at a time, by the routine lemma_unconditional_batch
    uses: one normalisation of all their functionals, one left side each
    from one bincount, and the sign-cube norms one (p, d, l) group at a
    time.  Failures are listed in instance order, an instance's inequality
    failure before its oracle one.
    """
    if not 1 <= max_l <= SIGN_CUBE_CAP:
        raise ConfigError(f"max tuple size must be in 1..{SIGN_CUBE_CAP}, got {max_l}")
    if instances < 0:
        raise ConfigError(f"instances must be >= 0, got {instances}")
    if instances > 2**32:
        # instance i's stream key holds i as one 32-bit word
        raise ConfigError(f"instances must be at most 2^32, got {instances}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    d_max = space.dim if space else LEMMA44_DIMS[1]
    # per instance, a block keeps its normals (max_l * d_max numbers at
    # most) from their draw on.  Besides them it holds, one phase after
    # the other, its stream's seed words while they are made and advanced
    # (kernels.PCG64_WORDS at the peak, more than kernels.SIBLING_WORDS),
    # a record of fewer than 4 * max_l + 4 * d_max + 12 numbers (key,
    # order, raw words and the index decode, then the indices, the gather
    # and the bincount keys, z and its norm's three temporaries, lhs and
    # rhs), three copies of its normals (the temporaries of their norms,
    # then the ell_1 oracle's), and pattern_norms; it counts their sum.
    # The sign patterns are held once
    patterns = kernels.pattern_elements(0, max_l, d_max)
    per_instance = (kernels.pattern_elements(1, max_l, d_max) - patterns + 4 * max_l * d_max
                    + 4 * max_l + 4 * d_max + 12 + kernels.PCG64_WORDS)
    check_sign_tensor(patterns + per_instance, "lower --l")
    report = CheckReport(
        check="lemma44",
        instances=instances,
        seed=seed,
        config={"max_l": max_l, "space": str(space) if space else None},
    )
    failures = []  # (instance, 0 for the inequality or 1 for the oracle, entry)
    block = (SIGN_TENSOR_CAP - patterns) // per_instance
    for lo in range(0, instances, block):
        for pi, d, members, ls, rows, ms, stacks in _lemma44_draws(
                space, seed, lo, min(lo + block, instances), max_l, d_max):
            sp = space or Space.lp(LEMMA44_PS[pi], d)
            rows /= np.maximum(1.0, _lp_norm(rows, sp.q))[:, None]
            lhs, rhs = _lemma_sides(sp, rows, ms, ls, stacks)
            report.merge_slack(float((rhs - lhs).min()))
            for t in np.flatnonzero(lhs > rhs + SLACK_TOL):
                tuple_rows = slice(ls[:t].sum(), ls[:t + 1].sum())
                failures.append((members[t], 0, {
                    "instance": int(members[t]), "space": str(sp),
                    "lhs": float(lhs[t]), "rhs": float(rhs[t]),
                    "ms": ms[tuple_rows].tolist(), "functionals": rows[tuple_rows].tolist()}))
            if sp.p == 1.0:
                oracle = np.concatenate([l1_extreme_point_constraint(S) for S in stacks])
                # both sides add the same l terms |x_i*(e_j)| in orders that
                # depend on the BLAS; each sum is within (l-1)*2^-53 relative
                # of the exact one, so they may differ by l*2^-52*oracle, no more
                for t in np.flatnonzero(np.abs(rhs - oracle) > ls * 2.0**-52 * oracle):
                    failures.append((members[t], 1, {
                        "instance": int(members[t]), "space": str(sp),
                        "constraint": float(rhs[t]),
                        "extreme_point_oracle": float(oracle[t]),
                        "kind": "oracle-mismatch"}))
    failures.sort(key=lambda f: f[:2])
    report.failures = [entry for *_, entry in failures]
    return report
