import math
from itertools import product

import numpy as np
import pytest

from fbl import fblnorm, kernels
from fbl.fblnorm import (
    ConfigError,
    DependenceError,
    SearchConfig,
    _fvalues,
    _neighbourhood,
    dim1_norm,
    fbl_lower_bound,
    fbl_lower_bounds,
    l1_extreme_point_constraint,
    tuple_constraint,
    upper_bound_finite_coords,
)
from fbl.homfun import Abs, Add, Delta, Join, Pos, Scale, eval_batch, parse
from fbl.lifting import LiftingSystem, T_apply
from fbl.spaces import DimensionMismatch, Space

from conftest import random_expr


def brute_constraint(space, X):
    """Full sign-cube enumeration, no symmetry reduction: independent oracle."""
    X = np.asarray(X, float)
    best = 0.0
    for eps in product((-1.0, 1.0), repeat=X.shape[0]):
        best = max(best, space.dual_norm(np.asarray(eps) @ X))
    return best


# ---------------------------------------------------------------------------
# tuple constraint


def test_single_functional_is_dual_norm(rng):
    for p in (1.0, 2.0, 3.0, math.inf):
        sp = Space.lp(p, 4)
        u = rng.standard_normal(4)
        C, eps = tuple_constraint(sp, [u])
        assert C == sp.dual_norm(u)
        assert np.array_equal(eps, [1.0])


def test_constraint_examples():
    C, _ = tuple_constraint(Space.lp(1, 2), [[1, 0], [0, 1]])
    assert C == 1.0
    C, _ = tuple_constraint(Space.lp(2, 2), [[1, 0], [0, 1]])
    assert C == pytest.approx(math.sqrt(2), rel=1e-15)


def test_constraint_matches_brute_force(rng):
    for p in (1.0, 1.5, 2.0, math.inf):
        sp = Space.lp(p, 3)
        for _ in range(30):
            k = int(rng.integers(1, 5))
            X = rng.standard_normal((k, 3))
            C, eps = tuple_constraint(sp, X)
            assert C == pytest.approx(brute_constraint(sp, X), rel=1e-14)
            # the certificate reproduces the constraint through the dual norm
            # (different summation order, so only up to rounding)
            assert sp.dual_norm(eps @ X) == pytest.approx(C, rel=1e-13)


def test_constraint_l1_extreme_point_oracle(rng):
    sp = Space.lp(1, 5)
    for _ in range(50):
        X = rng.standard_normal((int(rng.integers(1, 6)), 5))
        C, _ = tuple_constraint(sp, X)
        assert C == l1_extreme_point_constraint(X)


def test_constraint_certificate_tiebreak():
    # both sign patterns attain the max; the lexicographically smallest wins
    C, eps = tuple_constraint(Space.lp(2, 2), [[1, 0], [0, 1]])
    assert list(eps) == [1.0, -1.0]


def test_constraint_cap_and_errors():
    sp = Space.lp(2, 2)
    with pytest.raises(ConfigError):
        tuple_constraint(sp, np.ones((25, 2)))
    with pytest.raises(ConfigError):
        tuple_constraint(sp, np.ones((2, 3)))
    with pytest.raises(ConfigError):
        tuple_constraint(sp, np.ones((0, 2)))
    with pytest.raises(ConfigError, match=r"\(k, 2\)"):
        tuple_constraint(sp, np.ones(2))
    with pytest.raises(ConfigError, match=r"\(k, 2\)"):
        tuple_constraint(sp, np.ones((1, 2, 2)))


# ---------------------------------------------------------------------------
# lower-bound search


def test_delta_isometry_l2():
    est = fbl_lower_bound(Delta([1, 0, 0, 0]), Space.lp(2, 4),
                          SearchConfig(k=4, restarts=50, seed=0))
    assert 0.995 <= est.lower_bound <= 1.0 + 1e-9


def test_join_of_two_atoms_on_l1():
    expr = parse("|d(1,0)| v |d(0,1)|")
    est = fbl_lower_bound(expr, Space.lp(1, 2), SearchConfig(k=2, restarts=200, seed=0))
    assert est.lower_bound >= 1.999
    # the explicit tuple (e1*, e2*) shows the exact value is attainable
    C, _ = tuple_constraint(Space.lp(1, 2), [[1, 0], [0, 1]])
    assert C == 1.0
    assert est.lower_bound <= 2.0 + 1e-9


def test_dim1_closed_form():
    sp = Space.lp(2, 1)
    expr = Pos(Delta([1.0]))
    assert dim1_norm(expr, sp) == 1.0
    est = fbl_lower_bound(expr, sp, SearchConfig(k=2, restarts=20, seed=0))
    assert est.lower_bound == pytest.approx(1.0, rel=1e-3)
    assert est.lower_bound <= 1.0 + 1e-9


def test_search_deterministic():
    expr = parse("|d(1,0,0)| v 0.5*|d(0,1,-1)|")
    sp = Space.lp(2, 3)
    cfg = SearchConfig(k=3, restarts=20, seed=7)
    a = fbl_lower_bound(expr, sp, cfg)
    b = fbl_lower_bound(expr, sp, cfg)
    assert a.to_json() == b.to_json()


def test_search_monotone_in_restarts():
    expr = parse("|d(1,0,0)| v 0.5*|d(0,1,-1)|")
    sp = Space.lp(2, 3)
    prev = -np.inf
    for restarts in (1, 3, 10, 30):
        est = fbl_lower_bound(expr, sp, SearchConfig(k=2, restarts=restarts, seed=3))
        assert est.lower_bound >= prev
        prev = est.lower_bound


def test_witness_reproduces_bound():
    expr = parse("|d(1,0)| v |d(0,1)|")
    sp = Space.lp(1, 2)
    est = fbl_lower_bound(expr, sp, SearchConfig(k=2, restarts=10, seed=0))
    C, _ = tuple_constraint(sp, est.witness)
    from fbl.homfun import eval_batch
    obj = float(np.abs(eval_batch(expr, sp, est.witness)).sum())
    assert obj / C == est.lower_bound
    assert est.constraint == C and est.objective == obj


def test_ratio_scale_invariance(rng):
    sp = Space.lp(2, 3)
    expr = random_expr(rng, 3)
    from fbl.homfun import eval_batch
    for _ in range(20):
        X = rng.standard_normal((3, 3))
        lam = float(rng.uniform(0.1, 10))
        C1, _ = tuple_constraint(sp, X)
        C2, _ = tuple_constraint(sp, lam * X)
        o1 = np.abs(eval_batch(expr, sp, X)).sum()
        o2 = np.abs(eval_batch(expr, sp, lam * X)).sum()
        if C1 > 0:
            assert o2 / C2 == pytest.approx(o1 / C1, rel=1e-12, abs=1e-15)


def test_lower_bound_sound_for_delta(rng):
    # for f = delta(x), every ratio is bounded by ||x||: search can never
    # exceed the true norm
    for p in (1.0, 2.0, math.inf):
        sp = Space.lp(p, 3)
        x = rng.standard_normal(3)
        est = fbl_lower_bound(Delta(x), sp, SearchConfig(k=3, restarts=20, seed=1))
        assert est.lower_bound <= sp.norm(x) + 1e-9


@pytest.mark.parametrize("p", [math.inf, 3.0, 2.0, 1.5, 1.0, 1.0 + 1e-7],
                         ids=["q=1", "q=1.5", "q=2", "q=3", "q=inf", "p=1+1e-7"])
def test_incremental_neighbourhood_matches_full_rebuild(p, rng):
    # every move (i, j, s) scored from the kept signed sums and f-values
    # equals the ratio of the explicitly built candidate tuple
    for k in range(1, 6):
        for d in range(1, 6):
            sp = Space.lp(p, d)
            expr = random_expr(rng, d)
            S = kernels.sign_patterns(k)
            X = rng.standard_normal((k, 2, d))  # two tuples, functional-first
            step = rng.uniform(1e-3, 0.5, 2)
            ones = np.ones((1, 2))
            fvals = _fvalues([expr], ones, sp, X)
            got, _, _ = _neighbourhood([expr], ones, sp, X, kernels.signed_sums(X, S),
                                       fvals, step)
            cand = np.empty((k, d, 2, 2, k, d))
            for i, j, s, b in product(range(k), range(d), range(2), range(2)):
                cand[i, j, s, b] = X[:, b]
                cand[i, j, s, b, i, j] += (1.0 - 2.0 * s) * step[b]
            cand = cand.reshape(-1, k, d)
            C = kernels.constraint_batch(cand, S, sp.q)
            assert np.all(C > 0.0)
            obj = np.abs(eval_batch(expr, sp, cand.reshape(-1, d))).reshape(-1, k).sum(axis=1)
            want = obj / C
            np.testing.assert_allclose(got.ravel(), want, rtol=1e-12, atol=0.0)
    cfg = SearchConfig(k=2, restarts=5, seed=11)
    expr = parse("|d(1,0)| v 0.5*|d(0,1)|")
    assert (fbl_lower_bound(expr, Space.lp(p, 2), cfg).to_json()
            == fbl_lower_bound(expr, Space.lp(p, 2), cfg).to_json())


def _lift_weights(rng, d, E):
    A = rng.standard_normal((E, d))
    A[E // 2] = 0.0  # an all-zero combination: every ratio is 0/C
    return A


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["l1", "l2", "linf"])
def test_batched_searches_match_separate_searches(p, rng):
    # E searches run in lockstep give, estimate for estimate, the report of
    # the separate search on the lifted expression sum_n a_n f(n)
    cfg = SearchConfig(k=3, restarts=4, seed=3)
    for d in (1, 3, 6):
        system = LiftingSystem(Space.lp(p, d))
        for E in (1, 5):
            A = _lift_weights(rng, d, E)
            got = fbl_lower_bounds(system.generators, A, system.space, cfg)
            assert len(got) == E
            for a, est in zip(A, got):
                want = fbl_lower_bound(T_apply(system, a), system.space, cfg)
                assert est.to_json() == want.to_json()


def test_batched_search_chunks_under_the_cap(monkeypatch, rng):
    system = LiftingSystem(Space.lp(2.0, 3))
    cfg = SearchConfig(k=2, restarts=3, seed=1)
    A = _lift_weights(rng, 3, 7)
    whole = [e.to_json() for e in fbl_lower_bounds(system.generators, A, system.space, cfg)]
    # one search needs R * 2d * max(kd, 2^(k-1)) = 108 elements: three per chunk
    monkeypatch.setattr(fblnorm, "SIGN_TENSOR_CAP", 3 * 108)
    sizes = []
    lockstep = fblnorm._lockstep
    monkeypatch.setattr(fblnorm, "_lockstep",
                        lambda terms, W, *rest: sizes.append(len(W)) or lockstep(terms, W, *rest))
    chunked = [e.to_json() for e in fbl_lower_bounds(system.generators, A, system.space, cfg)]
    assert sizes == [3, 3, 1]
    assert chunked == whole
    # one search over the cap is still refused before any work
    monkeypatch.setattr(fblnorm, "SIGN_TENSOR_CAP", 107)
    with pytest.raises(ConfigError, match="--restarts"):
        fbl_lower_bounds(system.generators, A, system.space, cfg)


def test_zero_weight_terms_are_not_evaluated(monkeypatch):
    sp = Space.lp(2.0, 3)
    terms = [parse("|d(1,0,0)| v d(0,1,-1)"), parse("f(1)"), parse("h(1,1) - f(1)")]
    cfg = SearchConfig(k=2, restarts=3, seed=2)
    rows = {}

    def counting(term, space, X):
        rows[term] = rows.get(term, 0) + len(X)
        return eval_batch(term, space, X)

    monkeypatch.setattr(fblnorm, "eval_batch", counting)
    separate = [fbl_lower_bound(t, sp, cfg).to_json() for t in terms]
    alone, rows = rows, {}
    # weights eye(E): each term is evaluated on its own search's rows only
    got = fbl_lower_bounds(terms, np.eye(3), sp, cfg)
    assert rows == alone
    assert [e.to_json() for e in got] == separate
    # one dense weight row: every term on every row
    rows.clear()
    fbl_lower_bounds(terms, [[1.0, 0.5, -2.0]], sp, cfg)
    assert len(set(rows.values())) == 1


def test_batched_search_weights_shape():
    system = LiftingSystem(Space.lp(2.0, 3))
    cfg = SearchConfig(k=2, restarts=2)
    assert fbl_lower_bounds(system.generators, np.empty((0, 3)), system.space, cfg) == []
    for bad in (np.ones(3), np.ones((2, 2)), np.ones((1, 2, 3))):
        with pytest.raises(DimensionMismatch):
            fbl_lower_bounds(system.generators, bad, system.space, cfg)


def test_search_config_validation():
    with pytest.raises(ConfigError):
        SearchConfig(k=0)
    with pytest.raises(ConfigError):
        SearchConfig(k=30)
    with pytest.raises(ConfigError):
        SearchConfig(restarts=0)
    with pytest.raises(ConfigError):
        SearchConfig(seed=-1)


def test_nonfinite_expression_rejected():
    expr = Scale(math.inf, Delta([1.0, 0.0]))
    with pytest.raises(ValueError):
        fbl_lower_bound(expr, Space.lp(2, 2), SearchConfig(k=1, restarts=2))


# ---------------------------------------------------------------------------
# finite-coordinate upper bound


def test_upper_bound_join_example():
    expr = parse("|d(1,0)| v |d(0,1)|")
    ub = upper_bound_finite_coords(expr, Space.lp(1, 2), [1, 2])
    assert ub.value == 2.0 and ub.face_sup == 1.0
    assert ub.approximate


def test_upper_bound_single_atom():
    ub = upper_bound_finite_coords(Delta([1, 0, 0]), Space.lp(1, 3), [1])
    assert ub.value == 1.0


def test_upper_bound_zero_function():
    ub = upper_bound_finite_coords(Add([]), Space.lp(1, 2), [1, 2])
    assert ub.value == 0.0


def test_upper_bound_requires_l1():
    with pytest.raises(ConfigError):
        upper_bound_finite_coords(Delta([1, 0]), Space.lp(2, 2), [1])


def test_upper_bound_dependence_probe():
    # declared support {1} but the function reads coordinate 2
    expr = parse("|d(0,1)|")
    with pytest.raises(DependenceError):
        upper_bound_finite_coords(expr, Space.lp(1, 2), [1])


def test_upper_bound_dominates_search():
    expr = parse("|d(1,0)| v |d(1,1)| v 0.5*|d(0,1)|")
    sp = Space.lp(1, 2)
    ub = upper_bound_finite_coords(expr, sp, [1, 2], grid=65)
    est = fbl_lower_bound(expr, sp, SearchConfig(k=3, restarts=40, seed=0))
    assert est.lower_bound <= ub.value + 1e-9
