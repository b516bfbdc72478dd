"""The numpy kernels against scalar references built from the definitions."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fbl import kernels
from fbl.homfun import LiftParams
from fbl.spaces import Space

P = LiftParams()


def _hom_reference(x, n, mhi):
    """Generator n at one functional: positive part times the ramp product."""
    a = np.abs(x)
    an = a[n - 1]
    if an == 0.0:
        return 0.0
    prev = max(a[: n - 1], default=0.0)
    value = max(an - P.N(n) * prev, 0.0)
    for m in range(n + 1, mhi + 1):
        value *= P.g(m, a[m - 1] / an)
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
            out = kernels.hom_batch(X, n, mhi, Mv, Nv)
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
            want = kernels.hom_batch(np.ascontiguousarray(X), n, mhi, Mv, Nv).tobytes()
            for name, Y in layouts.items():
                assert kernels.hom_batch(Y, n, mhi, Mv, Nv).tobytes() == want, name


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
    np.testing.assert_allclose(kernels.pattern_norms(X, S, sp.q), ref, rtol=1e-6)
    np.testing.assert_allclose(kernels.constraint_batch(X[None], S, sp.q), [ref.max()],
                               rtol=1e-6)
    np.testing.assert_allclose([sp.dual_norm(x) for x in X], np.abs(X).max(axis=1),
                               rtol=1e-6)


LAST_INDEX = 2**32 - 1


@st.composite
def _sibling_ranges(draw):
    """start and stop of a run of at most 4 streams; starts at both ends
    of the index range, so some runs end at the last index."""
    start = draw(st.one_of(st.integers(0, 8), st.integers(0, LAST_INDEX),
                           st.integers(LAST_INDEX - 4, LAST_INDEX)))
    return start, min(start + draw(st.integers(0, 4)), LAST_INDEX + 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**80),
       key=st.one_of(st.sampled_from([(), (1,), (4, 2, 3)]),
                     st.integers(2**32, 2**70).map(lambda w: (3, w))),
       bounds=_sibling_ranges())
@example(seed=0, key=(), bounds=(0, 0))
@example(seed=2**80, key=(1,), bounds=(0, 1))
@example(seed=7, key=(4, 2, 3), bounds=(LAST_INDEX, LAST_INDEX + 1))
@example(seed=2**32, key=(2**32,), bounds=(LAST_INDEX - 1, LAST_INDEX + 1))
def test_sibling_states_match_seed_sequence(seed, key, bounds):
    start, stop = bounds
    states = kernels.sibling_states(seed, key, start, stop)
    assert states.shape == (stop - start, 4) and states.dtype == np.uint64
    assert states.flags.c_contiguous
    for i, words in zip(range(start, stop), states):
        ss = np.random.SeedSequence(seed, spawn_key=key + (i,))
        assert words.tolist() == ss.generate_state(4, np.uint64).tolist()
    # a generator seeded from a row draws what numpy's seeding gives
    for i, got in zip(range(start, stop), kernels.sibling_rngs(seed, key, start, stop)):
        want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key + (i,)))
        assert got.integers(2**40) == want.integers(2**40)
        assert got.standard_normal((3, 2)).tobytes() == want.standard_normal((3, 2)).tobytes()


def test_sibling_states_refuse_index_words_over_32_bits():
    with pytest.raises(ValueError, match="0..2"):
        kernels.sibling_states(0, (), LAST_INDEX, LAST_INDEX + 2)
    with pytest.raises(ValueError):
        kernels.sibling_states(0, (), -1, 3)


def test_sibling_states_peak_memory():
    n = 50_000
    kernels.sibling_states(3, (1,), 0, 8)  # constants and caches built
    tracemalloc.start()
    try:
        kernels.sibling_states(3, (1,), 0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # within SIBLING_WORDS 8-byte words per stream, up to a few fixed arrays
    assert peak <= 8 * kernels.SIBLING_WORDS * n + 4096


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


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, np.inf, 1e7],
                         ids=["q=1", "q=2", "q=3", "q=inf", "q=1e7"])
def test_move_constraints_peak_memory(q, rng):
    # the budget of the search's cap check: at most MOVE_ARRAYS float64 per
    # entry of the (2^(k-1) + k, d, 2, B) moved norms and results, up to a
    # few small arrays; the k term is the larger one for k <= 2
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
        assert peak <= 8 * kernels.MOVE_ARRAYS * ((1 << (k - 1)) + k) * 2 * d * B + 16384
