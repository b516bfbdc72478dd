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
    "MOVE_ARRAYS",
    "SIBLING_WORDS",
    "sibling_states",
    "sibling_rngs",
]

# recorded in benchmark environment blocks; numpy is the only implementation
BACKEND = "numpy"

# above this exponent |z|^q leaves float64 for |z| outside about [1e-10, 1e9]
# (q ~ 1e7 at p = 1 + 1e-7), so norms are taken relative to the largest entry
LARGE_EXPONENT = 32.0

# move_constraints holds at most MOVE_ARRAYS * (2^(k-1) + k) * 2dB float64
# at once, for B tuples of k functionals in d dimensions: the moved pattern
# norms are (2^(k-1), d, 2, B) and the result (k, d, 2, B).  Measured with
# tracemalloc; the scaled branch (q > LARGE_EXPONENT) is the largest.
MOVE_ARRAYS = 9

# the two signs of a move, one row each
_SIGNS = np.array([[1.0], [-1.0]])
_SIGNS.flags.writeable = False

# the hash constants of numpy's SeedSequence (numpy.random.bit_generator)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# 8-byte words per stream that sibling_states holds at its peak, its 4
# output words included
SIBLING_WORDS = 10


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


def _abs_power(x: np.ndarray, q: float, out=None) -> np.ndarray:
    """|x|^q for finite q, into out if given; x * x at q = 2, the bits of
    |x| * |x| without the absolute value."""
    if q == 2.0:
        return np.multiply(x, x, out=out)
    a = np.abs(x, out=out)
    return a if q == 1.0 else np.power(a, q, out=a)


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


def move_constraints(Z, step, q) -> np.ndarray:
    """Max-over-sign-patterns dual norm of every single-coordinate move.

    Z: (npat, d, B) signed sums of a batch of k-tuples (see signed_sums),
    npat = 2^(k-1); step: (B,).  Move (i, j, s) adds s*step[b] to
    coordinate j of functional i, which changes only column j of the
    tuple's signed sums, by s*step[b]*S[p, i] at pattern p.  So every
    pattern norm of every move is one of two per entry of Z: with
    Z[p, j, b] + step or with Z[p, j, b] - step in column j, combined with
    an aggregate of the other d-1 columns built once.  Returns
    (k, d, 2, B), sign s = +1 before -1.  A power sum that overflows is
    inf, an upper value; the caller decides whether numpy warns of it
    (the search ignores overflow).
    """
    npat, d, B = Z.shape
    # moved[:, :, t] holds Z + step for t = 0 and Z - step for t = 1
    moved = Z[:, :, None, :] + _SIGNS * step
    # the aggregates of the other columns are built coordinates-first, so
    # that each column is one contiguous block
    if q == math.inf:
        a = np.abs(Z.transpose(1, 0, 2), out=np.empty((d, npat, B)))
        others = _leave_one_out(a, np.maximum).transpose(1, 0, 2)[:, :, None, :]
        total = np.abs(moved, out=moved)
        return _max_over_patterns(np.maximum(total, others, out=total))
    if q <= LARGE_EXPONENT:
        powers = _abs_power(Z.transpose(1, 0, 2), q, out=np.empty((d, npat, B)))
        total = _abs_power(moved, q, out=moved)
        total += _leave_one_out(powers).transpose(1, 0, 2)[:, :, None, :]
        # the root is increasing, so it is taken after the max
        return _root(_max_over_patterns(total), q)
    a = np.abs(Z)
    np.abs(moved, out=moved)
    # leave-one-out maximum from each pattern's top two entries
    is_top = np.arange(d)[:, None] == a.argmax(axis=1)[:, None, :]
    rest = np.where(is_top, 0.0, a)
    top1 = a.max(axis=1, keepdims=True)
    top2 = rest.max(axis=1, keepdims=True)
    others = np.where(is_top, top2, top1)[:, :, None, :]
    # scaled power sums: the other columns relative to their largest
    # entry, then everything relative to the moved tuple's largest entry
    top1, top2 = _nonzero(top1), _nonzero(top2)
    scaled = np.where(is_top, _power(rest / top2, q).sum(axis=1, keepdims=True),
                      _leave_one_out(_power(a / top1, q).transpose(1, 0, 2))
                      .transpose(1, 0, 2))[:, :, None, :]
    m = _nonzero(np.maximum(others, moved))
    total = scaled * _power(others / m, q) + _power(moved / m, q)
    return _max_over_patterns(_root(total, q) * m)


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


def _words32(x: int) -> list[int]:
    """x >= 0 as SeedSequence reads it: 32-bit words, least significant first."""
    out = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        out.append(x & _MASK32)
    return out


def _hash_chain(h: int, mult: int, n: int):
    """The xor and multiplier constants of n successive hashes from hash
    constant h, as two (n,) uint32 rows, and the hash constant after them."""
    xor, mul = [], []
    for _ in range(n):
        xor.append(h)
        h = h * mult & _MASK32
        mul.append(h)
    return np.array(xor, dtype=np.uint32), np.array(mul, dtype=np.uint32), h


# generate_state hashes output word w from pool word w mod 4 with the w-th
# constants of a chain that restarts at _INIT_B on every call
_OUT_XOR, _OUT_MUL, _ = _hash_chain(_INIT_B, _MULT_B, 2 * _POOL)
_OUT_XOR.flags.writeable = _OUT_MUL.flags.writeable = False


def sibling_states(seed: int, key: tuple, start: int, stop: int) -> np.ndarray:
    """PCG64 seed words of the sibling streams SeedSequence(seed, spawn_key=key + (i,)).

    Row i - start is SeedSequence(seed, spawn_key=key + (i,))
    .generate_state(4, np.uint64) for i in range(start, stop), bit for
    bit, in a C-contiguous (stop - start, 4) uint64 array.  SeedSequence
    hashes the seed's 32-bit words, padded with zeros to the pool size of
    4, then the key's words and the index word into a pool of four 32-bit
    words, and hashes the pool into 8 output words.  All but the index word
    are the same for every stream, so they are hashed once, with Python
    ints.  Only the index word, which must be below 2^32, is hashed per
    stream, in uint32 lanes, whose arithmetic wraps modulo 2^32 as
    SeedSequence's does: the pool as an (n, 4) array and the output words
    as an (n, 8) array.
    """
    if start < 0 or stop > 1 << 32:
        raise ValueError(f"stream indices must lie in 0..2^32-1, got {start}..{stop - 1}")
    entropy = _words32(seed)
    entropy += [0] * (_POOL - len(entropy))
    for word in key:
        entropy += _words32(word)

    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value ^= h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    # the index word, lane dst: pool[dst] = mix(pool[dst], hashmix(index))
    xor, mul, _ = _hash_chain(h, _MULT_A, _POOL)
    P = np.arange(start, stop, dtype=np.uint32)[:, None] ^ xor
    P *= mul
    P ^= P >> 16
    P *= np.uint32(_MIX_MULT_R)
    np.subtract(np.array([_MIX_MULT_L * v & _MASK32 for v in pool], dtype=np.uint32), P, out=P)
    P ^= P >> 16
    # generate_state(8 words), paired little-endian into uint64 as numpy does
    out = np.concatenate([P, P], axis=1)
    out ^= _OUT_XOR
    out *= _OUT_MUL
    out ^= out >> 16
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _StateWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 one row of sibling_states."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for 4 uint64 words and reads the buffer raw
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a row of sibling_states seeds PCG64 only")
        return self.words


def sibling_rngs(seed: int, key: tuple, start: int, stop: int):
    """The generators default_rng(SeedSequence(seed, spawn_key=key + (i,)))
    for i in range(start, stop), one at a time, seeded from sibling_states."""
    for words in sibling_states(seed, key, start, stop):
        yield np.random.Generator(np.random.PCG64(_StateWords(words)))
