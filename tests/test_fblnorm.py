import math
import tracemalloc
from dataclasses import replace
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
from fbl.spaces import DimensionMismatch, InputError, Space, parse_space

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


def _start_tuples(seed, R, k, d):
    """The start tuples of fbl_lower_bounds: restart r draws from child r."""
    X0 = np.empty((k, R, d))
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(R)):
        X0[:, r] = np.random.Generator(np.random.PCG64(child)).standard_normal((k, d))
    return X0


@pytest.mark.parametrize("space, text", [
    ("l1:2", "d(0.1,0.9)"), ("l2:2", "d(0.1,0.9)"), ("linf:2", "d(0.1,0.9)"),
    ("lp:3:2", "d(0.1,0.9)"), ("lp:1.0000001:2", "d(0.1,0.9)"),
    ("l1:2", "|d(1,0)| v |d(0,1)|"),
], ids=["l1", "l2", "linf", "l3", "p=1+1e-7", "l1-join"])
def test_restarts_climb_independently(space, text, monkeypatch):
    # an R-restart search reports, bit for bit, the witness of one of its
    # restarts searched alone, and scores as many moves as they do together;
    # restarts retire on different iterations, so the live batch shrinks.
    # Four decay rounds instead of twenty keep the 17 lone searches short.
    monkeypatch.setattr(fblnorm, "DECAY_ROUNDS", 4)
    sp, expr, ones = parse_space(space), parse(text), np.ones((1, 1))
    for k, local_steps in product((1, 2, 4), (1, 8)):
        X0 = _start_tuples(1, 17, k, sp.dim)
        one = SearchConfig(k=k, restarts=1, local_steps=local_steps, seed=1)
        alone = [fblnorm._lockstep([expr], ones, sp, one, X0[:, r:r + 1])[0].to_dict()
                 for r in range(17)]
        if local_steps == 1:
            # every neighbourhood ends a round: four, of 2kd moves each
            assert {a["evaluations"] for a in alone} == {1 + 2 * k * sp.dim * 4}
        for R in (3, 17):
            cfg = replace(one, restarts=R)
            got = fblnorm._lockstep([expr], ones, sp, cfg, X0[:, :R])[0]
            assert got.to_json() == fbl_lower_bound(expr, sp, cfg).to_json()
            got = got.to_dict()
            assert got["evaluations"] == sum(a["evaluations"] for a in alone[:R])
            same = [a for a in alone[:R]
                    if {**a, "restarts": R, "evaluations": got["evaluations"]} == got]
            assert same, (k, local_steps, R)


def test_start_ratios_do_not_depend_on_the_batch(monkeypatch):
    # the k f-values of each start tuple are added in order at any batch
    # width; a numpy sum over one column switches to pairwise blocks at k >= 9
    k, R = 12, 8
    sp, expr, ones = parse_space("l2:3"), parse("d(0.1,0.9,-0.4)"), np.ones((1, 1))
    X0 = _start_tuples(0, R, k, 3)
    starts, ratios = [], fblnorm._ratios

    def stop(*args):
        raise StopIteration  # the start ratios are all this test needs

    monkeypatch.setattr(fblnorm, "_ratios", lambda obj, C: starts.append(ratios(obj, C)))
    monkeypatch.setattr(fblnorm, "_neighbourhood", stop)
    cfg = SearchConfig(k=k, restarts=1)
    for r in range(R):
        with pytest.raises(StopIteration):
            fblnorm._lockstep([expr], ones, sp, cfg, X0[:, r:r + 1])
    with pytest.raises(StopIteration):
        fblnorm._lockstep([expr], ones, sp, replace(cfg, restarts=R), X0)
    assert np.array_equal(np.concatenate(starts[:R]), starts[R])


@pytest.mark.parametrize("space", ["l1:4", "l2:4", "linf:4", "lp:3:4"])
def test_lower_bound_monotone_in_restarts_at_k4(space):
    # adding a restart never lowers the certified bound; --restarts 1 beat
    # --restarts 2 on lp:3:4 with seed 3 while the other f-values of a tuple
    # were added by a BLAS product whose bits depend on the batch width
    sp, expr = parse_space(space), parse("d(0.1,0.9,0.2,0.3)")
    for seed in (3, 4):
        bounds = [fbl_lower_bound(expr, sp, SearchConfig(k=4, restarts=R, seed=seed)).lower_bound
                  for R in range(1, 13)]
        assert bounds == sorted(bounds), (seed, bounds)


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


def _all_moved_fvalues(terms, W, space, X, step, dense=None):
    """f-values of all 2kd moved functionals of each tuple, (k, d, 2, B)."""
    k, B, d = X.shape
    unit = np.eye(d)[:, None, None, :] * np.array([1.0, -1.0])[:, None, None]
    rows = X[:, None, None] + unit * step[:, None]
    return _fvalues(terms, W, space, rows.reshape(-1, B, d), dense).reshape(k, d, 2, B)


@pytest.mark.parametrize("p", [math.inf, 3.0, 2.0, 1.5, 1.0, 1.0 + 1e-7],
                         ids=["q=1", "q=1.5", "q=2", "q=3", "q=inf", "p=1+1e-7"])
def test_incremental_neighbourhood_matches_full_rebuild(p, rng):
    # every move (i, j, s) scored from the kept signed sums and f-values
    # equals the ratio of the explicitly built candidate tuple, at the first
    # neighbourhood and after tuple 0 accepts a move and tuple 1 decays;
    # the kept f-values of the moved functionals equal, bit for bit, a
    # fresh evaluation of all moved rows
    for k in range(1, 6):
        for d in range(1, 6):
            sp = Space.lp(p, d)
            expr = random_expr(rng, d)
            S = kernels.sign_patterns(k)
            X = rng.standard_normal((k, 2, d))  # two tuples, functional-first
            step = rng.uniform(1e-3, 0.5, 2)
            ones = np.ones((1, 2))
            fvals = _fvalues([expr], ones, sp, X)
            Z = kernels.signed_sums(X, S)
            new, stale = np.empty((k, d, 2, 2)), np.ones((k, 2), dtype=bool)
            for visit in range(2):
                got = _neighbourhood([expr], ones, sp, X, Z, fvals, new, stale, step)
                assert np.array_equal(new, _all_moved_fvalues([expr], ones, sp, X, step))
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
                if visit:
                    break
                # tuple 0 takes its best move, as _lockstep applies it
                i, j, s = np.unravel_index(int(got[..., 0].argmax()), (k, d, 2))
                delta = (1.0 - 2.0 * s) * step[0]
                X[i, 0, j] += delta
                Z[:, j, 0] += delta * S[:, i]
                fvals[i, 0] = new[i, j, s, 0]
                # tuple 1 decays: all its moved rows change
                step[1] *= fblnorm.STEP_DECAY
                stale[:] = False
                stale[i, 0] = stale[:, 1] = True
    cfg = SearchConfig(k=2, restarts=5, seed=11)
    expr = parse("|d(1,0)| v 0.5*|d(0,1)|")
    assert (fbl_lower_bound(expr, Space.lp(p, 2), cfg).to_json()
            == fbl_lower_bound(expr, Space.lp(p, 2), cfg).to_json())


@pytest.mark.parametrize("space, k", [("l2:3", 3), ("linf:4", 2), ("lp:3:2", 4)])
def test_kept_fvalues_match_a_fresh_evaluation(space, k, monkeypatch):
    # through a whole lockstep search of three weighted generator sums (one
    # a zero row), with accepted moves, decays and retiring restarts: at
    # every neighbourhood the f-values kept for all moves are those of a
    # fresh evaluation of every moved row, bit for bit
    monkeypatch.setattr(fblnorm, "DECAY_ROUNDS", 6)
    system = LiftingSystem(parse_space(space))
    d = system.space.dim
    rng = np.random.default_rng(5)
    neighbourhood = fblnorm._neighbourhood
    cfg = SearchConfig(k=k, restarts=5, local_steps=3, seed=2)
    seen = []
    # the zero row makes every term sparse (evaluated where weighted only)
    for A in (_lift_weights(rng, d, 3), rng.standard_normal((3, d))):
        widths = []

        def checked(terms, W, sp, X, Z, fvals, new, stale, step, dense):
            ratio = neighbourhood(terms, W, sp, X, Z, fvals, new, stale, step, dense)
            assert np.array_equal(new, _all_moved_fvalues(terms, W, sp, X, step, dense))
            widths.append((X.shape[1], int(stale.sum())))
            return ratio

        monkeypatch.setattr(fblnorm, "_neighbourhood", checked)
        got = fbl_lower_bounds(system.generators, A, system.space, cfg)
        monkeypatch.setattr(fblnorm, "_neighbourhood", neighbourhood)
        assert [e.to_json() for e in got] == [
            e.to_json() for e in fbl_lower_bounds(system.generators, A, system.space, cfg)]
        # every slot at the first neighbourhood, then fewer than all of
        # them while restarts accept moves
        assert widths[0] == (15, 15 * k)
        assert any(stale < k * width for width, stale in widths)
        seen += widths
    # the batch shrinks as restarts retire
    assert min(width for width, _ in seen) < 15


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
    # one search holds R * 2d * (MOVE_ARRAYS * (2^(k-1) + k) + ROW_ARRAYS * kd)
    # = 3 * 6 * (9 * 4 + 5 * 6) = 1188 elements: three per chunk
    assert kernels.MOVE_ARRAYS == 9 and fblnorm.ROW_ARRAYS == 5
    monkeypatch.setattr(fblnorm, "SIGN_TENSOR_CAP", 3 * 1188)
    sizes = []
    lockstep = fblnorm._lockstep
    monkeypatch.setattr(fblnorm, "_lockstep",
                        lambda terms, W, *rest: sizes.append(len(W)) or lockstep(terms, W, *rest))
    chunked = [e.to_json() for e in fbl_lower_bounds(system.generators, A, system.space, cfg)]
    assert sizes == [3, 3, 1]
    assert chunked == whole
    # one search over the cap is still refused before any work
    monkeypatch.setattr(fblnorm, "SIGN_TENSOR_CAP", 1187)
    with pytest.raises(ConfigError, match="--restarts"):
        fbl_lower_bounds(system.generators, A, system.space, cfg)


@pytest.mark.parametrize("space, k", [("l2:2", 11), ("lp:1.0000001:3", 9), ("l1:6", 3),
                                      ("linf:3", 1)])
def test_search_peak_memory_within_the_checked_count(space, k, monkeypatch):
    # the cap check counts every live temporary of a search: a batch of E
    # searches holds at most E times the elements it checks, up to a few
    # small arrays
    monkeypatch.setattr(fblnorm, "DECAY_ROUNDS", 2)
    system = LiftingSystem(parse_space(space))
    A = np.random.default_rng(1).standard_normal((3, system.space.dim))
    cfg = SearchConfig(k=k, restarts=16, seed=1)
    fbl_lower_bounds(system.generators, A, system.space, cfg)  # caches built
    checked, check = [], fblnorm.check_sign_tensor
    monkeypatch.setattr(fblnorm, "check_sign_tensor",
                        lambda n, remedy: checked.append(n) or check(n, remedy))
    tracemalloc.start()
    try:
        fbl_lower_bounds(system.generators, A, system.space, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(A) * checked[0] + 65536


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


def test_dependence_error_is_an_input_error():
    # inside the error contract: the CLI maps every InputError to exit 2
    assert issubclass(DependenceError, InputError)
    assert "DependenceError" in fblnorm.__all__


def test_upper_bound_dominates_search():
    expr = parse("|d(1,0)| v |d(1,1)| v 0.5*|d(0,1)|")
    sp = Space.lp(1, 2)
    ub = upper_bound_finite_coords(expr, sp, [1, 2], grid=65)
    est = fbl_lower_bound(expr, sp, SearchConfig(k=3, restarts=40, seed=0))
    assert est.lower_bound <= ub.value + 1e-9
