"""Hot numeric kernels, vectorized with numpy.

All kernels are careful to produce *literal* zeros where the formulas clamp
(positive parts, ramp cutoffs), so exact-zero assertions downstream are sound.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "BACKEND",
    "sign_patterns",
    "hom_batch",
    "pattern_norms",
    "constraint_batch",
    "signed_sums",
    "move_constraints",
]

# recorded in benchmark environment blocks; numpy is the only implementation
BACKEND = "numpy"

# above this exponent |z|^q leaves float64 for |z| outside about [1e-10, 1e9]
# (q ~ 1e7 at p = 1 + 1e-7), so norms are taken relative to the largest entry
LARGE_EXPONENT = 32.0


@functools.lru_cache(maxsize=None)
def sign_patterns(k: int) -> np.ndarray:
    """All sign vectors in {-1,1}^k with first entry fixed to +1.

    Rows are in lexicographic order (-1 before +1), so scanning for the first
    maximum yields the lexicographically smallest certificate.  The matrix is
    cached per k and read-only.
    """
    # entry i >= 1 of pattern number pat is bit k-1-i of pat
    bits = (np.arange(1 << (k - 1))[:, None] >> np.arange(k - 2, -1, -1)) & 1
    out = np.empty((bits.shape[0], k))
    out[:, 0] = 1.0
    out[:, 1:] = 2.0 * bits - 1.0
    out.flags.writeable = False
    return out


def _power(a: np.ndarray, q: float) -> np.ndarray:
    """a^q for a >= 0 and finite q, exact at q = 1."""
    if q == 1.0:
        return a
    if q == 2.0:
        return a * a
    return np.power(a, q)


def _root(s: np.ndarray, q: float) -> np.ndarray:
    """s^(1/q), the inverse of _power."""
    if q == 1.0:
        return s
    if q == 2.0:
        return np.sqrt(s)
    return np.power(s, 1.0 / q)


def _nonzero(m: np.ndarray) -> np.ndarray:
    """m with zeros replaced by 1, for use as a scale."""
    return np.where(m == 0.0, 1.0, m)


def _dual_norms(Z: np.ndarray, q: float, axis: int = -1) -> np.ndarray:
    """ell_q norms of Z along `axis`."""
    a = np.abs(Z)
    if q == math.inf:
        return a.max(axis=axis)
    if q > LARGE_EXPONENT:
        # |z|^q would over- or underflow: scale each row by its largest entry
        m = _nonzero(a.max(axis=axis, keepdims=True))
        return _root(_power(a / m, q).sum(axis=axis), q) * m.squeeze(axis)
    return _root(_power(a, q).sum(axis=axis), q)


def hom_batch(X, n, mhi, Mv, Nv) -> np.ndarray:
    """Batch-evaluate the disjoint generator (or its truncation) at rows of X.

    X: (N, d) functional coordinates; n: 1-based generator index; mhi: product
    runs over basis indices m with n < m <= mhi; Mv, Nv: cutoff sequences.
    """
    # coordinates first, (mhi, N) and contiguous: every reduction over the
    # at most mhi coordinates is an elementwise operation on whole rows
    a = np.abs(np.asarray(X, dtype=np.float64).T[:mhi], order="C")
    an = a[n - 1]
    prev = a[: n - 1].max(axis=0, initial=0.0)
    base = np.maximum(an - Nv[n - 1] * prev, 0.0)
    if mhi > n:
        t = np.divide(a[n:], an, out=np.zeros_like(a[n:]), where=an > 0.0)
        g = (Nv[n:mhi, None] - t) / (Nv[n:mhi, None] - Mv[n:mhi, None])
        np.minimum(np.maximum(g, 0.0, out=g), 1.0, out=g)
        base = base * g.prod(axis=0)
    return np.where(an == 0.0, 0.0, base)


def pattern_norms(X, S, q) -> np.ndarray:
    """Dual norms of the signed sums S @ X, one per sign pattern (row of S)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    return _dual_norms(S @ X, q)


def constraint_batch(XB, S, q) -> np.ndarray:
    """Max-over-sign-patterns dual norm for a batch of functional tuples.

    XB: (B, k, d); S: sign pattern matrix (npat, k).  Returns (B,).
    """
    XB = np.ascontiguousarray(XB, dtype=np.float64)
    # one GEMM for the whole batch: contract the tuple axis with the patterns
    Z = np.tensordot(XB, S, axes=([1], [1]))  # (B, d, npat)
    return _dual_norms(Z, q, axis=1).max(axis=1)


def signed_sums(X, S) -> np.ndarray:
    """Signed sums Z[p, j, b] = sum_i S[p, i] X[i, b, j], shape (npat, d, B).

    X holds a batch of B k-tuples functional-first, shape (k, B, d).  The
    batch axis is last, so the reductions of move_constraints run over
    contiguous blocks of the batch.
    """
    return np.ascontiguousarray(np.tensordot(S, X, axes=(1, 0)).transpose(0, 2, 1))


def _leave_one_out_sums(W: np.ndarray) -> np.ndarray:
    """Sum of W >= 0 along axis 1 without each entry in turn.

    Prefix plus suffix sums, so no entry is subtracted back out: an entry
    much larger than the rest does not cancel their digits away, and an
    overflowed inf stays inf instead of turning into inf - inf.
    """
    out = np.zeros_like(W)
    np.cumsum(W[:, :-1], axis=1, out=out[:, 1:])
    out[:, :-1] += np.cumsum(W[:, :0:-1], axis=1)[:, ::-1]
    return out


def move_constraints(Z, step, q) -> np.ndarray:
    """Max-over-sign-patterns dual norm of every single-coordinate move.

    Z: (npat, d, B) signed sums of a batch of k-tuples (see signed_sums),
    npat = 2^(k-1); step: (B,).  Move (i, j, s) adds s*step[b] to
    coordinate j of functional i, which changes only column j of the
    tuple's signed sums, by s*step[b]*S[p, i] at pattern p.  So every
    pattern norm of every move is one of two per entry of Z: with
    Z[p, j, b] + step or with Z[p, j, b] - step in column j, combined with
    an aggregate of the other d-1 columns built once.  Returns
    (k, d, 2, B), sign s = +1 before -1.
    """
    d = Z.shape[1]
    a = np.abs(Z)
    # moved[:, :, t] holds |Z + step| for t = 0 and |Z - step| for t = 1
    moved = np.abs(Z[:, :, None, :] + np.array([[1.0], [-1.0]]) * step)
    if q == math.inf or q > LARGE_EXPONENT:
        # leave-one-out maximum from each pattern's top two entries
        is_top = np.arange(d)[:, None] == a.argmax(axis=1)[:, None, :]
        rest = np.where(is_top, 0.0, a)
        top1 = a.max(axis=1, keepdims=True)
        top2 = rest.max(axis=1, keepdims=True)
        others = np.where(is_top, top2, top1)[:, :, None, :]
    if q == math.inf:
        return _max_over_patterns(np.maximum(moved, others))
    with np.errstate(over="ignore"):
        if q <= LARGE_EXPONENT:
            # the root is increasing, so it is taken after the max
            sums = _leave_one_out_sums(_power(a, q))[:, :, None, :]
            return _root(_max_over_patterns(sums + _power(moved, q)), q)
        # scaled power sums: the other columns relative to their largest
        # entry, then everything relative to the moved tuple's largest entry
        top1, top2 = _nonzero(top1), _nonzero(top2)
        scaled = np.where(is_top, _power(rest / top2, q).sum(axis=1, keepdims=True),
                          _leave_one_out_sums(_power(a / top1, q)))[:, :, None, :]
        m = _nonzero(np.maximum(others, moved))
        total = scaled * _power(others / m, q) + _power(moved / m, q)
        return _max_over_patterns(_root(total, q) * m)


def _max_over_patterns(A: np.ndarray) -> np.ndarray:
    """C of every move from the pattern norms A (npat, d, 2, B) of move_constraints.

    Move (i, j, s) takes A[p, j, 0] where s*S[p, i] = +1 and A[p, j, 1]
    elsewhere.  S[:, 0] = +1; for i >= 1, S[p, i] = +1 exactly where bit
    k-1-i of p is set, so the two halves are one axis of a reshape of p.
    """
    npat = A.shape[0]
    k = npat.bit_length()
    C = np.empty((k,) + A.shape[1:])
    C[0] = A.max(axis=0)
    for i in range(1, k):
        # G[h]: max of A over the patterns with S[p, i] = 2h - 1
        G = A.reshape(1 << (i - 1), 2, npat >> i, -1).max(axis=(0, 2))
        G = G.reshape((2,) + A.shape[1:])
        np.maximum(G[1], G[0, :, ::-1], out=C[i])
    return C
