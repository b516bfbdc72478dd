import math

import numpy as np
import pytest

from fbl.fblnorm import SearchConfig, fbl_lower_bound
from fbl.homfun import Abs, BuiltinF, Delta, Join, LiftParams, Scale, eval_batch, eval_expr
from fbl.lifting import LiftingSystem, T_apply, beta_apply
from fbl.spaces import DimensionMismatch, InputError, Space


@pytest.fixture(params=[1.0, 2.0, math.inf], ids=["l1", "l2", "linf"])
def system(request):
    return LiftingSystem(Space.lp(request.param, 6))


def test_beta_of_delta_is_identity(rng, system):
    for _ in range(20):
        x = rng.standard_normal(6)
        assert np.array_equal(beta_apply(Delta(x), system.space), Delta(x).coords)


def test_beta_of_generators_is_basis(system):
    for n, g in enumerate(system.generators, start=1):
        assert np.array_equal(beta_apply(g, system.space), np.eye(6)[n - 1])


def test_beta_hand_value():
    sp = Space.lp(2, 2)
    assert np.array_equal(beta_apply(Abs(Delta([1, 0])), sp), [1.0, 0.0])


def test_beta_refuses_a_non_finite_value():
    # 1e308 * 10 overflows to inf; numpy's warning is silenced here, as the
    # refusal, not the warning, is under test
    huge = Scale(1e308, Scale(10.0, Delta([1.0, 0.0])))
    with np.errstate(over="ignore"), pytest.raises(InputError, match="non-finite"):
        beta_apply(huge, Space.lp(2, 2))


def test_T_of_basis_vector_matches_generator(rng, system):
    sp = system.space
    X = rng.standard_normal((50, 6))
    for n in range(1, 7):
        lifted = T_apply(system, np.eye(6)[n - 1])
        assert np.array_equal(eval_batch(lifted, sp, X),
                              eval_batch(BuiltinF(n, system.params), sp, X))


def test_T_of_zero_is_zero(rng, system):
    lifted = T_apply(system, np.zeros(6))
    X = rng.standard_normal((20, 6))
    assert np.all(eval_batch(lifted, system.space, X) == 0.0)


def test_beta_T_is_identity(rng, system):
    for _ in range(200):
        x = rng.standard_normal(6)
        back = beta_apply(T_apply(system, x), system.space)
        assert np.max(np.abs(back - x)) <= 1e-12


def test_T_lattice_homomorphism_trivial(system, rng):
    # T(x v y) = T(x) v T(y) at one functional, to 1e-12: disjointness of the
    # generators makes at most one term of either side nonzero there
    x, xs = rng.standard_normal(6), rng.standard_normal(6)
    lhs = eval_expr(T_apply(system, np.maximum(x, x)), system.space, xs)
    rhs = eval_expr(Join(T_apply(system, x), T_apply(system, x)), system.space, xs)
    assert abs(lhs - rhs) <= 1e-12


def test_T_lattice_homomorphism_on_basis(system):
    # at e_1* only the first generator is nonzero, so both sides reduce to it
    e1, e2 = np.eye(6)[:2]
    lhs = eval_expr(T_apply(system, np.maximum(e1, e2)), system.space, e1)
    rhs = eval_expr(Join(T_apply(system, e1), T_apply(system, e2)), system.space, e1)
    assert abs(lhs - rhs) <= 1e-12


def test_T_lattice_homomorphism_random(system, rng):
    for _ in range(2000):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        xs = rng.standard_normal(6)
        lhs = eval_expr(T_apply(system, np.maximum(x, y)), system.space, xs)
        rhs = eval_expr(Join(T_apply(system, x), T_apply(system, y)), system.space, xs)
        assert abs(lhs - rhs) <= 1e-12


def test_disjoint_sum_has_single_active_term(system, rng):
    # at any functional at most one generator is nonzero
    X = rng.standard_normal((500, 6))
    F = np.stack([eval_batch(g, system.space, X) for g in system.generators])
    assert np.max((F != 0.0).sum(axis=0)) <= 1


def test_T_norm_bound_evidence(rng):
    # search ratios on T(x) never exceed ||x||
    system = LiftingSystem(Space.lp(2, 4))
    for seed in range(3):
        x = rng.standard_normal(4)
        est = fbl_lower_bound(T_apply(system, x), system.space,
                              SearchConfig(k=3, restarts=10, seed=seed))
        assert est.lower_bound <= system.space.norm(x) + 1e-9


def test_T_dimension_check(system):
    with pytest.raises(ValueError):
        T_apply(system, np.zeros(5))


def test_T_dimension_mismatch_is_an_input_error(system):
    for bad in (np.zeros(5), np.zeros((1, 6)), 1.0):
        with pytest.raises(DimensionMismatch, match="expected 6 coordinates"):
            T_apply(system, bad)
    assert issubclass(DimensionMismatch, InputError)
