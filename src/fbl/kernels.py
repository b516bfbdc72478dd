"""Hot numeric kernels, vectorized with numpy.

All kernels are careful to produce *literal* zeros where the formulas clamp
(positive parts, ramp cutoffs), so exact-zero assertions downstream are sound.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BACKEND",
    "sign_patterns",
    "hom_batch",
    "pattern_norms",
    "constraint_batch",
]

# recorded in benchmark environment blocks; numpy is the only implementation
BACKEND = "numpy"

# above this exponent |z|^q leaves float64 for |z| outside about [1e-10, 1e9]
# (q ~ 1e7 at p = 1 + 1e-7), so norms are taken relative to the largest entry
LARGE_EXPONENT = 32.0


def sign_patterns(k: int) -> np.ndarray:
    """All sign vectors in {-1,1}^k with first entry fixed to +1.

    Rows are in lexicographic order (-1 before +1), so scanning for the first
    maximum yields the lexicographically smallest certificate.
    """
    npat = 1 << (k - 1)
    out = np.empty((npat, k))
    out[:, 0] = 1.0
    for i in range(1, k):
        bit = 1 << (k - 1 - i)
        out[:, i] = [1.0 if (pat & bit) else -1.0 for pat in range(npat)]
    return out


def _dual_norms(Z: np.ndarray, q: float, axis: int = -1) -> np.ndarray:
    """ell_q norms of Z along `axis`."""
    a = np.abs(Z)
    if q == math.inf:
        return a.max(axis=axis)
    if q == 1.0:
        return a.sum(axis=axis)
    if q == 2.0:
        return np.sqrt((a * a).sum(axis=axis))
    if q > LARGE_EXPONENT:
        # |z|^q would over- or underflow: scale each row by its largest entry
        m = a.max(axis=axis, keepdims=True)
        m[m == 0.0] = 1.0
        return np.power(np.power(a / m, q).sum(axis=axis), 1.0 / q) * m.squeeze(axis)
    return np.power(np.power(a, q).sum(axis=axis), 1.0 / q)


def hom_batch(X, n, mhi, Mv, Nv) -> np.ndarray:
    """Batch-evaluate the disjoint generator (or its truncation) at rows of X.

    X: (N, d) functional coordinates; n: 1-based generator index; mhi: product
    runs over basis indices m with n < m <= mhi; Mv, Nv: cutoff sequences.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    a = np.abs(X)
    an = a[:, n - 1]
    prev = a[:, : n - 1].max(axis=1, initial=0.0)
    base = np.maximum(an - Nv[n - 1] * prev, 0.0)
    if mhi > n:
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(an[:, None] > 0.0, a[:, n:mhi] / an[:, None], 0.0)
        g = np.clip((Nv[n:mhi] - t) / (Nv[n:mhi] - Mv[n:mhi]), 0.0, 1.0)
        base = base * g.prod(axis=1)
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
