"""The numpy kernels against scalar references built from the definitions."""

import itertools
import tracemalloc

import numpy as np
import pytest

from fbl import kernels
from fbl.homfun import LiftParams
from fbl.spaces import Space

P = LiftParams()


def _hom_reference(x, n, mhi, params=P):
    """Generator n at one functional: positive part times the ramp product.

    A NaN coordinate makes the value NaN, unless the value is 0 because
    x_n is."""
    a = np.abs(x)
    an = a[n - 1]
    if an == 0.0:
        return 0.0
    prev = np.max(a[: n - 1], initial=0.0)
    value = max(an - params.N(n) * prev, 0.0)
    for m in range(n + 1, mhi + 1):
        value *= params.g(m, a[m - 1] / an)
    return value


def test_hom_batch_matches_scalar_reference(rng):
    d = 8
    Mv, Nv = P.arrays(d)
    # magnitudes spread over eight decades, so every generator is active on
    # some rows and ratios land inside every ramp's transition band
    X = rng.standard_normal((500, d)) * 10.0 ** rng.uniform(-4, 4, (500, d))
    X[rng.random((500, d)) < 0.1] = 0.0  # exercise the zero branch
    for n in range(1, d + 1):
        for mhi in range(n, d + 1):
            out = kernels.hom_batch(X, [(n, mhi)], Mv, Nv)[0]
            ref = np.array([_hom_reference(x, n, mhi) for x in X])
            np.testing.assert_allclose(out, ref, rtol=1e-14, atol=0.0)
            # clamped values are literal zeros, not rounding residue
            clamped = ref == 0.0
            assert clamped.any() and not clamped.all()
            assert np.array_equal(out == 0.0, clamped)
            assert not np.signbit(out[clamped]).any()


def test_hom_batch_bits_do_not_depend_on_layout(rng):
    d = 6
    Mv, Nv = P.arrays(d)
    X = np.round(rng.standard_normal((300, d)) * 10.0 ** rng.integers(-2, 3, (300, d)))
    X[rng.random((300, d)) < 0.2] = 0.0
    wide = np.zeros((300, 2 * d))
    wide[:, ::2] = X
    layouts = {
        "F-order": np.asfortranarray(X),
        "strided view": wide[:, ::2],
        "integer": X.astype(np.int64),
    }
    for n in range(1, d + 1):
        for mhi in range(n, d + 1):
            want = kernels.hom_batch(np.ascontiguousarray(X), [(n, mhi)], Mv, Nv).tobytes()
            for name, Y in layouts.items():
                assert kernels.hom_batch(Y, [(n, mhi)], Mv, Nv).tobytes() == want, name


def test_hom_batch_is_zero_where_its_coordinate_is(rng):
    # f_n(x*) = 0 where x*(e_n) = 0, whatever the other coordinates hold
    d = 5
    Mv, Nv = P.arrays(d)
    X = rng.standard_normal((40, d))
    X[::2, 2] = 0.0
    X[::4, 0] = np.nan
    X[1::4, 4] = np.nan
    out = kernels.hom_batch(X, [(3, d)], Mv, Nv)[0]
    assert out[::2].tobytes() == np.zeros(20).tobytes()


def _sparse_batches(rng, d):
    """Batches on which generator 3's positive part vanishes on every row
    (|x_3| = |x_1| <= N_3 max(|x_1|, |x_2|)), or on all but a few rows;
    with zero and inf rows, where inf - N * inf makes a positive part NaN
    without a NaN coordinate; and each of those with NaN rows too."""
    dead = rng.standard_normal((400, d))
    dead[:, 2] = dead[:, 0]
    few = dead.copy()
    few[::40, 2] = 1e6
    inf = np.inf
    special = np.zeros((6, d))
    special[1:] = rng.standard_normal((5, d))
    special[1, 0] = special[2, 4] = special[3, [0, 2]] = special[4] = inf
    special[5, [0, 1]] = [-inf, inf]
    nan = rng.standard_normal((4, d))
    nan[0, 0] = nan[1, 2] = nan[2, 6] = np.nan
    nan[3, [0, 2]] = [np.nan, 0.0]
    batches = {"dead": dead, "few": few}
    for name in ("dead", "few"):
        batches[name + "+special"] = np.vstack([batches[name], special])
        batches[name + "+nan"] = np.vstack([batches[name], special, nan])
    return batches


@pytest.mark.parametrize("params", [P, LiftParams(m_values=(1.0, 1.1, 1.2, 3.0, 3.5, 9.0, 20.0))])
def test_hom_batch_leaves_match_their_one_leaf_calls(params, rng, monkeypatch):
    # a multi-leaf call gives each leaf the bits of its one-leaf call, in
    # any order, with repeats, and with the leaf mhi = n (no ramps); also
    # on batches where generators have no live row or few, which skip
    # their ramps or build them on the live rows only, unless a coordinate
    # is NaN
    d = 7
    Mv, Nv = params.arrays(d)
    X = rng.standard_normal((400, d)) * 10.0 ** rng.uniform(-3, 3, (400, d))
    X[rng.random((400, d)) < 0.1] = 0.0
    X[rng.random((400, d)) < 0.03] = np.nan
    live_rows, lives = kernels._live_rows, []
    monkeypatch.setattr(kernels, "_live_rows",
                        lambda *args: lives.append(args[4]) or live_rows(*args))
    pairs = [(n, mhi) for n in range(1, d + 1) for mhi in range(n, d + 1)]
    for name, X in {"spread": X, **_sparse_batches(rng, d)}.items():
        lives.clear()
        # inf - inf and inf / inf are NaN, as the reference takes them
        with np.errstate(invalid="ignore"):
            refs = {(n, mhi): np.array([_hom_reference(x, n, mhi, params) for x in X])
                    for n, mhi in pairs}
            for size in (1, 2, 5, 9, len(pairs)):
                leaves = [pairs[i] for i in rng.integers(0, len(pairs), size)]
                leaves += [leaves[0], (leaves[-1][0], leaves[-1][0])]
                out = kernels.hom_batch(X, leaves, Mv, Nv)
                assert out.shape == (len(leaves), len(X))
                for row, (n, mhi) in zip(out, leaves):
                    alone = kernels.hom_batch(X, [(n, mhi)], Mv, Nv)[0]
                    assert row.tobytes() == alone.tobytes(), name
                    ref = refs[n, mhi]
                    np.testing.assert_allclose(row, ref, rtol=1e-14, atol=0.0)
                    assert not np.signbit(row[ref == 0.0]).any()
                    # the lanes with x_n = 0 are literal zeros, NaN or not elsewhere
                    zero = X[:, n - 1] == 0.0
                    assert row[zero].tobytes() == np.zeros(zero.sum()).tobytes()
            full = kernels.hom_batch(X, pairs, Mv, Nv)
        assert np.isnan(full).any() == (name not in ("dead", "few")), name
        # the sparse batches compress generators, and skip one where no
        # inf row makes its positive part NaN; none does with a NaN
        if name.endswith("+nan"):
            assert lives == [], name
        elif name != "spread":
            assert any(0 < 4 * live < len(X) for live in lives), name
            assert (0 in lives) == (name in ("dead", "few")), name


def test_sign_patterns_lexicographic():
    S = kernels.sign_patterns(3)
    assert S.shape == (4, 3)
    assert np.array_equal(S[:, 0], np.ones(4))
    rows = [tuple(r) for r in S]
    assert rows == sorted(rows)


def test_sign_patterns_cached_and_read_only():
    for k in range(1, 7):
        S = kernels.sign_patterns(k)
        ref = [(1.0,) + e for e in itertools.product((-1.0, 1.0), repeat=k - 1)]
        assert S.tolist() == [list(r) for r in ref]
        assert kernels.sign_patterns(k) is S
        assert not S.flags.writeable


def test_dual_norms_survive_power_sum_overflow():
    # p near 1 makes q ~ 1e7: |z|^q overflows above 1 and underflows below,
    # while the true norm is within a factor d^(1/q) of max |z|
    sp = Space.lp(1.0000001, 3)
    X = np.array([[3.0, -2.0, 0.5], [1e-3, 0.0, 0.0]])
    S = kernels.sign_patterns(2)
    ref = np.abs(S @ X).max(axis=1)
    np.testing.assert_allclose(kernels.pattern_norms([X[None]], sp.q), ref, rtol=1e-6)
    np.testing.assert_allclose(kernels.constraint_batch(X[None], S, sp.q), [ref.max()],
                               rtol=1e-6)
    np.testing.assert_allclose([sp.dual_norm(x) for x in X], np.abs(X).max(axis=1),
                               rtol=1e-6)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf, 1.0000001],
                         ids=["p=1", "p=1.5", "p=2", "p=3", "p=inf", "p=1+1e-7"])
def test_pattern_norms_match_each_stack_alone(p, rng):
    # one pass over many stacks gives every sign pattern of every tuple the
    # bits of the product and norms taken on its stack alone; p = 1 + 1e-7
    # takes _dual_norms' scaled branch
    q = Space.lp(p, 1).q
    assert (kernels.LARGE_EXPONENT < q < np.inf) == (p == 1.0000001)
    for d in range(1, 9):
        # tuple sizes 1-9 mixed in one call, with one-tuple and empty stacks
        ks = rng.permutation(np.arange(1, 10))
        stacks = [rng.standard_normal((n, k, d)) for k, n in zip(ks, (1, 4, 0, 7, 1, 3, 0, 2, 5))]
        want = [kernels._dual_norms(kernels.sign_patterns(k) @ X, q).ravel()
                for X, k in zip(stacks, ks)]
        assert kernels.pattern_norms(stacks, q).tobytes() == np.concatenate(want).tobytes()
        # no tuples at all
        empty = kernels.pattern_norms([X for X in stacks if not len(X)], q)
        assert empty.shape == (0,) and empty.dtype == np.float64


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, np.inf, 1e7],
                         ids=["q=1", "q=2", "q=3", "q=inf", "q=1e7"])
def test_pattern_norms_peak_memory(q, rng):
    # the count of tuple_constraint's and lemma44's cap checks: the sign
    # patterns built afresh and the norms of every stack stay within the
    # sum of pattern_elements(n, k, d) over the stacks, up to a few small
    # arrays; one stack of each (n, k), then mixed tuple sizes in one call
    shapes = [[nk] for nk in itertools.product((1, 40), (1, 2, 5, 11))]
    for d in (1, 3, 8):
        for stack_shapes in shapes + [[(40, 1), (1, 5), (40, 11), (7, 2)]]:
            stacks = [rng.standard_normal((n, k, d)) for n, k in stack_shapes]
            kernels.sign_patterns.cache_clear()
            tracemalloc.start()
            try:
                kernels.pattern_norms(stacks, q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * sum(kernels.pattern_elements(n, k, d)
                                   for n, k in stack_shapes) + 4096


def test_leave_one_out_matches_cumulative_reference(rng):
    # the row-at-a-time prefixes and suffixes add in the order of cumsum,
    # bit for bit; the maximum variant is the max over the other rows,
    # the top-two rule: the runner-up at the first largest row, else the max
    for d in range(1, 9):
        for scale in (1.0, 1e300):
            W = np.abs(rng.standard_normal((d, 5, 7))) ** 3 * scale
            W[:, 0, 0] = 0.0
            W[0, 1, :] = np.inf
            with np.errstate(over="ignore"):
                want = np.zeros_like(W)
                np.cumsum(W[:-1], axis=0, out=want[1:])
                want[:-1] += np.cumsum(W[:0:-1], axis=0)[::-1]
            assert np.array_equal(kernels._leave_one_out(W), want)
            top = W.argmax(axis=0) == np.arange(d)[:, None, None]
            rest = np.where(top, 0.0, W)
            want = np.where(top, rest.max(axis=0), W.max(axis=0))
            assert np.array_equal(kernels._leave_one_out(W, np.maximum), want)


def test_signed_sums_of_a_lone_tuple_match_its_batch_column(rng):
    # each tuple's signed sums have the same bits alone as in a batch: a
    # matrix product over one column may take another path (at d = 1)
    for k in range(1, 13):
        S = kernels.sign_patterns(k)
        for d in range(1, 10):
            X = rng.standard_normal((k, 64, d))
            Z = kernels.signed_sums(X, S)
            assert Z.shape == (len(S), d, 64) and Z.flags.c_contiguous
            for b in range(64):
                alone = kernels.signed_sums(X[:, b:b + 1], S)
                assert alone.tobytes() == np.ascontiguousarray(Z[:, :, b:b + 1]).tobytes(), (k, d, b)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, np.inf, 51.0, 1e7],
                         ids=["q=1", "q=2", "q=3", "q=inf", "q=51", "q=1e7"])
def test_move_constraints_peak_memory(q, rng):
    # the budget of the search's cap check: at most MOVE_ARRAYS float64 per
    # entry of the (2^(k-1) + k, d, 2, B) moved norms and results, or
    # d + MOVE_ARRAYS above LARGE_EXPONENT (q = 51 and 1e7), whose moved
    # tuples' signed sums are built in full, up to a few small arrays; the
    # k term is the larger one for k <= 2
    arrays = kernels.MOVE_ARRAYS + (2 if kernels.LARGE_EXPONENT < q < np.inf else 0)
    assert kernels.move_elements(3, 2, q) == arrays * 7 * 4
    for k, d, B in itertools.product((1, 2, 3, 6, 10), (1, 2, 6), (64,)):
        X = rng.standard_normal((k, B, d))
        Z = kernels.signed_sums(X, kernels.sign_patterns(k))
        step = rng.uniform(0.1, 0.5, B)
        tracemalloc.start()
        try:
            with np.errstate(over="ignore"):
                kernels.move_constraints(Z, step, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * kernels.move_elements(k, d, q) * B + 16384
