"""Hot numeric kernels, vectorized with numpy.

All kernels are careful to produce *literal* zeros where the formulas clamp
(positive parts, ramp cutoffs), so exact-zero assertions downstream are sound.
hom_batch evaluates every generator leaf f(n)/h(n,k) of one batch of
functionals in one call, so that the leaves share their common work.
pattern_norms is the one exact sign-cube pass: tuple_constraint's
certificate and lemma44's right sides both take their norms from it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "BACKEND",
    "sign_patterns",
    "sign_rows",
    "CACHED_PATTERNS",
    "hom_batch",
    "pattern_norms",
    "constraint_batch",
    "signed_sums",
    "move_constraints",
    "MOVE_SIGNS",
    "MOVE_ARRAYS",
    "move_elements",
    "PATTERN_ARRAYS",
    "pattern_elements",
]

# recorded in benchmark environment blocks; numpy is the only implementation
BACKEND = "numpy"

# above this exponent |z|^q leaves float64 for |z| outside about [1e-10, 1e9]
# (q ~ 1e7 at p = 1 + 1e-7), so norms are taken relative to the largest entry
LARGE_EXPONENT = 32.0

# move_constraints holds at most MOVE_ARRAYS * (2^(k-1) + k) * 2dB float64
# at once, for B tuples of k functionals in d dimensions, where q <=
# LARGE_EXPONENT or q = inf keeps the incremental formula (one power-sum
# route, whose sum is a maximum at q = inf): the moved pattern norms are
# (2^(k-1), d, 2, B) and the result (k, d, 2, B).  Above LARGE_EXPONENT
# every moved tuple's signed sums are built in full, d more arrays (see
# move_elements).  Measured with tracemalloc per branch.
MOVE_ARRAYS = 4

# pattern_norms of n k-tuples in d dimensions holds at most PATTERN_ARRAYS
# float64 per sign pattern and coordinate at once: the signed sums (n,
# 2^(k-1), d) and the norms' temporaries, plus two per pattern of each
# tuple for the norms themselves (each row's power sum and its root); a
# call over several stacks holds these counts for all of them at once,
# added up.  sign_patterns(k) holds as many per pattern and tuple entry
# while it builds the (2^(k-1), k) matrix, which stays cached only up to
# k = CACHED_PATTERNS.  Measured with tracemalloc; the scaled branch (q >
# LARGE_EXPONENT) is the largest.  The norms are taken in place in the
# signed sums, so the pass holds less than the count.
PATTERN_ARRAYS = 4

# MOVE_SIGNS[s, 0], the sign of move (i, j, s) where move_constraints scores
# it and the search makes it; a column, so that MOVE_SIGNS * step has a row per s
MOVE_SIGNS = np.array([[1.0], [-1.0]])
MOVE_SIGNS.flags.writeable = False

# sign_patterns caches its matrices up to this tuple size: 2^15 rows, about
# 8 MB for all of them together; a larger one is built afresh per call
CACHED_PATTERNS = 16


def sign_patterns(k: int) -> np.ndarray:
    """All sign vectors in {-1,1}^k with first entry fixed to +1.

    Rows are in lexicographic order (-1 before +1), so scanning for the first
    maximum yields the lexicographically smallest certificate.  The matrix is
    read-only, and cached per k up to CACHED_PATTERNS;
    sign_patterns.cache_clear() empties the cache.
    """
    return _cached_sign_patterns(k) if k <= CACHED_PATTERNS else _sign_patterns(k)


def _sign_patterns(k):
    out = sign_rows(k, np.arange(1 << (k - 1)))
    out.flags.writeable = False
    return out


def sign_rows(k, pats):
    """Rows pats (an int array) of sign_patterns(k), built afresh: entry i of
    pattern pat < 2^(k-1) is +1 where bit k-1-i of pat + 2^(k-1) is set, else
    -1; so entry 0 is +1."""
    return 2.0 * ((pats[:, None] + (1 << (k - 1))) >> np.arange(k - 1, -1, -1) & 1) - 1.0


_cached_sign_patterns = functools.lru_cache(maxsize=None)(_sign_patterns)
sign_patterns.cache_clear = _cached_sign_patterns.cache_clear


def _abs_power(x: np.ndarray, q: float, out=None) -> np.ndarray:
    """|x|^q for q up to LARGE_EXPONENT, and |x| at q = inf, where the power
    sum is a maximum; into out if given.  x * x at q = 2, the bits of
    |x| * |x| without the absolute value."""
    if q == 2.0:
        return np.multiply(x, x, out=out)
    a = np.abs(x, out=out)
    return a if q in (1.0, math.inf) else np.power(a, q, out=a)


def _root(s: np.ndarray, q: float) -> np.ndarray:
    """s^(1/q), the inverse of _abs_power on s >= 0: s itself at q = 1 and
    q = inf."""
    if q in (1.0, math.inf):
        return s
    if q == 2.0:
        return np.sqrt(s)
    return np.power(s, 1.0 / q)


def _rows(op, a: np.ndarray) -> np.ndarray:
    """op.reduce of a along its last axis, into a new array.  Rows shorter
    than 8 are folded column by column into a running row, one elementwise
    op per column: numpy's reduction pays a fixed cost per row, and adds
    fewer than 8 entries in order too, so on a >= 0 the bits are the same."""
    d = a.shape[-1]
    if d >= 8:
        return op.reduce(a, axis=-1, out=np.empty(a.shape[:-1]))
    s = a[..., 0].copy()
    for j in range(1, d):
        op(s, a[..., j], out=s)
    return s


def _dual_norms(Z: np.ndarray, q: float, out=None) -> np.ndarray:
    """ell_q norms of Z along its last axis, the package's one ell_q norm:
    the root of the power sum of |Z|, which at q = inf is a maximum.  Its
    one temporary the size of Z (see PATTERN_ARRAYS) is |Z|, or Z * Z at
    q = 2; every power and scaling is taken in place in it.  Given out
    (Z's shape; out=Z overwrites Z), it is written there instead, with the
    same bits.  Every row's norm has the bits it has alone, and rows
    shorter than 8 are reduced column by column (see _rows)."""
    if LARGE_EXPONENT < q < math.inf:
        # |z|^q would over- or underflow: scale each row by its largest entry
        a = np.abs(Z, out=out)
        m = _rows(np.maximum, a)
        m[m == 0.0] = 1.0
        a = np.power(np.divide(a, m[..., None], out=a), q, out=a)
        return _root(_rows(np.add, a), q) * m
    op = np.maximum if q == math.inf else np.add
    return _root(_rows(op, _abs_power(Z, q, out=out)), q)


def hom_batch(X, leaves, Mv, Nv) -> np.ndarray:
    """Batch-evaluate disjoint generators (or their truncations) at rows of X.

    X: (N, d) functional coordinates; leaves: pairs (n, mhi), each the
    generator of 1-based index n with its ramp product over the basis
    indices m, n < m <= mhi; Mv, Nv: cutoff sequences, Nv finite.  Returns
    (len(leaves), N), row i the values of leaves[i]; a one-leaf call is the
    single-generator case.  The leaves share one coordinates-first copy of
    |X| and one pass of prefix maxima.  The ramps of each generator index
    n are built once, for the largest mhi among its leaves, and each leaf
    takes the product of their first mhi - n rows.  A row is live for n
    where n's positive part max(a_n - N_n * max_{m<n} a_m, 0) is nonzero,
    NaN included.  Any other row, and any row with a_n = 0, has the value
    0 * P = +0 for the ramp product P in [0, 1].  So unless a coordinate
    is NaN, which makes P NaN, an index whose live rows' a_n and ramp
    coordinates fit in the buffer's ramp rows builds its ramps and
    products on those rows only and scatters them into zeros (with no
    live row, it gets zeros without its ramps).  Otherwise a lane with
    a_n = 0 divides by 1 and is zeroed at the end.  Each value has the
    bits of this dense pass, whatever the other rows and leaves are.  The
    result is a view of the call's one work buffer, which it keeps alive.
    """
    # leaves[i] = (n, mhi) by generator index: n -> [(i, mhi), ...]
    groups = {}
    for i, (n, mhi) in enumerate(leaves):
        groups.setdefault(n, []).append((i, mhi))
    order = sorted(groups)
    tops = {n: max(mhi for _, mhi in groups[n]) for n in order}
    top = max(tops.values())
    # one buffer, so that repeated calls reuse one heap block: the values,
    # the coordinates a (top, N), and the ramps of every generator index
    # but the last in turn
    X = np.asarray(X, dtype=np.float64)
    L, N = len(leaves), len(X)
    spare = max([tops[n] - n for n in order[:-1]], default=0)
    buf = np.empty((L + top + spare, N))
    out, a, ramps = buf[:L], buf[L:L + top], buf[L + top:]
    # coordinates first and contiguous: every reduction over the
    # coordinates is an elementwise operation on whole rows
    np.abs(X.T[:top], out=a)
    width = Nv - Mv
    # prev = max(a_1, ..., a_{n-1}, 0), one row at a time as n grows
    prev = np.zeros(N)
    seen = 0
    # whether a coordinate is NaN, found when a row could first be skipped
    nan = None
    for n in order:
        for m in range(seen, n - 1):
            np.maximum(prev, a[m], out=prev)
        seen = n - 1
        # the last index works in place of prev, a_n and the coordinates
        # past it, which no other index needs any more
        last = n == order[-1]
        an = a[n - 1]
        # max(a_n - N_n * prev, 0)
        base = np.multiply(prev, Nv[n - 1], out=prev if last else None)
        np.subtract(an, base, out=base)
        np.maximum(base, 0.0, out=base)
        hi = tops[n]
        live = np.count_nonzero(base)
        if hi > n and (hi - n + 1) * live <= ramps.size:
            if nan is None:
                nan = math.isnan(a.max(initial=0.0))
            if not nan:
                _live_rows(out, a, ramps, base, live, groups[n], n, hi, Nv, width)
                continue
        zero = an == 0.0
        if hi > n:
            # the ramps g_m(a_m / a_n), one row for each n < m <= hi
            t = a[n:hi] if last else ramps[:hi - n]
            np.divide(a[n:hi], np.add(an, zero, out=an if last else None), out=t)
            _ramps(t, Nv[n:hi, None], width[n:hi, None])
        for i, mhi in groups[n]:
            row = out[i]
            if mhi > n:
                # base times the product of the first mhi - n ramp rows
                np.multiply.reduce(t[:mhi - n], axis=0, out=row)
                np.multiply(base, row, out=row)
            else:
                row[...] = base
            row[zero] = 0.0
    return out


def _ramps(t, Nv, width):
    """g_m(t) = clamp((N_m - t) / (N_m - M_m), 0, 1) in place of t."""
    np.subtract(Nv, t, out=t)
    np.divide(t, width, out=t)
    np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)


def _live_rows(out, a, ramps, base, live, group, n, hi, Nv, width):
    """hom_batch's leaves of generator index n from its live rows, their
    values scattered into zeros.  The live entries of a_n and of the
    ramps' coordinates go to one contiguous block at the start of the ramp
    rows, which hom_batch has checked they fit."""
    for i, _ in group:
        out[i].fill(0.0)
    if not live:
        return
    rows = (base != 0.0).nonzero()[0]
    block = ramps.reshape(-1)[:(hi - n + 1) * live].reshape(hi - n + 1, live)
    np.take(a[n - 1:hi], rows, axis=1, out=block, mode="clip")
    an, t = block[0], block[1:]
    np.divide(t, an, out=t)
    _ramps(t, Nv[n:hi, None], width[n:hi, None])
    base = base[rows]
    for i, mhi in group:
        # base times the product of the first mhi - n ramp rows, in an
        np.multiply.reduce(t[:mhi - n], axis=0, out=an)
        out[i, rows] = np.multiply(base, an, out=an)


def pattern_elements(n: int, k: int, d: int) -> int:
    """Float64 elements that pattern_norms of n k-tuples in d dimensions
    holds at its peak, sign_patterns(k) included (see PATTERN_ARRAYS); a
    call over several stacks holds the sum over its stacks."""
    return (PATTERN_ARRAYS * (k + n * d) + 2 * n) << (k - 1)


def pattern_norms(stacks, q) -> np.ndarray:
    """Dual norms of the signed sums of every tuple of the (n, k, d) stacks,
    one per sign pattern, tuple after tuple and each tuple's patterns in
    sign_patterns(k) order.  The signed sums go into one buffer, one
    matmul per stack, whose rows take one dual-norm call in place; every
    row's norm has the bits it has alone."""
    counts = [len(X) << (X.shape[1] - 1) for X in stacks]
    Z = np.empty((sum(counts), stacks[0].shape[2]))
    at = 0
    for X, count in zip(stacks, counts):
        n, k, d = X.shape
        np.matmul(sign_patterns(k), np.ascontiguousarray(X, dtype=np.float64),
                  out=Z[at:at + count].reshape(n, 1 << (k - 1), d))
        at += count
    return _dual_norms(Z, q, out=Z)


def constraint_batch(XB, S, q) -> np.ndarray:
    """Max-over-sign-patterns dual norm for a batch of functional tuples.

    XB: (B, k, d); S: sign pattern matrix (npat, k).  Returns (B,).
    """
    XB = np.ascontiguousarray(XB, dtype=np.float64)
    # one GEMM for the whole batch: contract the tuple axis with the patterns
    Z = np.tensordot(XB, S, axes=([1], [1]))  # (B, d, npat)
    return _dual_norms(Z.transpose(0, 2, 1), q).max(axis=1)


def signed_sums(X, S) -> np.ndarray:
    """Signed sums Z[p, j, b] = sum_i S[p, i] X[i, b, j], shape (npat, d, B).

    X holds a batch of B k-tuples functional-first, shape (k, B, d).  The
    batch axis is last, so the reductions of move_constraints run over
    contiguous blocks of the batch.  The k terms are added in order, one
    elementwise pass each, so every tuple's sums have the bits they have
    alone, whatever the batch (a matrix product may take another path for
    a lone column).
    """
    Xt = X.transpose(0, 2, 1)
    Z = np.multiply(S[:, 0, None, None], Xt[0], out=np.empty((len(S),) + Xt.shape[1:]))
    for i in range(1, len(Xt)):
        Z += S[:, i, None, None] * Xt[i]
    return Z


def _leave_one_out(W: np.ndarray, op=np.add) -> np.ndarray:
    """op (np.add or np.maximum) of W >= 0 along axis 0 without each entry in turn.

    Prefix plus suffix sums, so no entry is subtracted back out: an entry
    much larger than the rest does not cancel their digits away, and an
    overflowed inf stays inf instead of turning into inf - inf.  Both run
    one row at a time, each added in the order of a cumulative sum, on
    whole rows (contiguous blocks for a C-contiguous W): numpy's cumsum
    pays a per-lane overhead that outweighs the sums at a search's few
    coordinates.  With one row, nothing is left: 0.
    """
    d = len(W)
    out = np.empty_like(W)
    if d == 1:
        out.fill(0.0)
        return out
    # prefixes: out[m] = op(W[0], ..., W[m-1])
    out[1] = W[0]
    for m in range(2, d):
        op(out[m - 1], W[m - 1], out=out[m])
    # suffixes op(W[d-1], ..., W[m+1]), taken onto the prefixes; row 0 has
    # no prefix (W >= 0, so op(0.0, suffix) is the suffix)
    suffix = W[d - 1]
    for m in range(d - 2, 0, -1):
        op(out[m], suffix, out=out[m])
        suffix = op(suffix, W[m])
    out[0] = suffix
    return out


def move_elements(k: int, d: int, q: float) -> int:
    """Float64 elements that move_constraints holds at its peak per k-tuple
    in d dimensions (see MOVE_ARRAYS)."""
    arrays = d + MOVE_ARRAYS if LARGE_EXPONENT < q < math.inf else MOVE_ARRAYS
    return arrays * ((1 << (k - 1)) + k) * 2 * d


def move_constraints(Z, step, q) -> np.ndarray:
    """Max-over-sign-patterns dual norm of every single-coordinate move.

    Z: (npat, d, B) signed sums of a batch of k-tuples (see signed_sums),
    npat = 2^(k-1); step: (B,).  Move (i, j, s) adds s*step[b] to
    coordinate j of functional i, which changes only column j of the
    tuple's signed sums, by s*step[b]*S[p, i] at pattern p.  So every
    pattern norm of every move is one of two per entry of Z: with
    Z[p, j, b] + step or with Z[p, j, b] - step in column j.  For q up to
    LARGE_EXPONENT and q = inf, its |z|^q (|z| at q = inf) is combined
    with the other d-1 columns' power sum (their maximum at q = inf),
    built once by a leave-one-out; above LARGE_EXPONENT each moved tuple's
    signed sums are built in full and normed by _dual_norms.  Returns
    (k, d, 2, B), sign s = +1 before -1.  A power sum that overflows is
    inf, an upper value; the caller decides whether numpy warns of it
    (the search ignores overflow).
    """
    npat, d, B = Z.shape
    # moved[:, :, t] holds Z + step for t = 0 and Z - step for t = 1
    moved = Z[:, :, None, :] + MOVE_SIGNS * step
    if q <= LARGE_EXPONENT or q == math.inf:
        # the aggregates of the other columns are built coordinates-first,
        # so that each column is one contiguous block
        op = np.maximum if q == math.inf else np.add
        powers = _abs_power(Z.transpose(1, 0, 2), q, out=np.empty((d, npat, B)))
        total = _abs_power(moved, q, out=moved)
        op(total, _leave_one_out(powers, op).transpose(1, 0, 2)[:, :, None, :], out=total)
        # the root is increasing, so it is taken after the max
        return _root(_max_over_patterns(total), q)
    # |z|^q would over- or underflow: every moved tuple's signed sums in
    # full, coordinates last, take _dual_norms' scaled branch
    full = np.empty((npat, d, 2, B, d))
    full[...] = Z.transpose(0, 2, 1)[:, None, None]
    cols = np.arange(d)
    full[:, cols, :, :, cols] = moved.transpose(1, 0, 2, 3)
    return _max_over_patterns(_dual_norms(full, q, out=full))


def _max_over_patterns(A: np.ndarray) -> np.ndarray:
    """C of every move from the pattern norms A (npat, d, 2, B) of move_constraints.

    Move (i, j, s) takes A[p, j, 0] where s*S[p, i] = +1 and A[p, j, 1]
    elsewhere.  S[:, 0] = +1; for i >= 1, S[p, i] = +1 exactly where bit
    k-1-i of p is set, the leading axis of A once the higher bits are
    folded away by a maximum.  So M[i, h], the max of A over the patterns
    with S[p, i] = 2h - 1, comes from one halving fold per bit.
    """
    npat = A.shape[0]
    k = npat.bit_length()
    rest = A.shape[1:]
    M = np.empty((k, 2) + rest)
    M[0, 0] = -np.inf  # no pattern has S[p, 0] = -1
    for i in range(1, k):
        A = A.reshape((2, -1) + rest)
        np.maximum.reduce(A, axis=1, out=M[i])
        A = np.maximum(A[0], A[1])
    M[0, 1] = A[0]
    return np.maximum(M[:, 1], M[:, 0, :, ::-1])
