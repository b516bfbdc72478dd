import math

import numpy as np
import pytest

from fbl.kernels import LARGE_EXPONENT, _dual_norms, _root
from fbl.spaces import (
    DimensionMismatch,
    Space,
    SpaceSyntaxError,
    parse_space,
)

ALL_PS = [1.0, 1.5, 2.0, 3.0, math.inf]


def test_norm_examples():
    assert Space.lp(2, 2).norm([3, 4]) == 5.0
    assert Space.lp(1, 3).norm([1, -1, 1]) == 3.0
    assert Space.lp(math.inf, 2).norm([0, 0]) == 0.0


def test_dual_norm_examples():
    assert Space.lp(1, 2).dual_norm([1, 1]) == 1.0
    assert Space.lp(2, 2).dual_norm([1, 1]) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert Space.lp(math.inf, 2).dual_norm([1, 1]) == 2.0


def test_lattice_ops():
    assert np.array_equal(np.maximum([1.0, -1.0], [0.0, 2.0]), [1, 2])
    assert np.array_equal(np.abs([-3.0, 4.0]), [3, 4])
    x = np.array([0.5, -2.0, 7.0])
    assert np.array_equal(np.minimum(x, x), x)
    assert np.array_equal(np.maximum([-1.0, 2.0], 0.0), [0, 2])


def test_dimension_mismatch():
    sp = Space.lp(2, 3)
    with pytest.raises(DimensionMismatch):
        sp.norm([1, 2])
    with pytest.raises(DimensionMismatch):
        sp.dual_norm([1, 2])


@pytest.mark.parametrize("p", ALL_PS)
def test_holder_inequality(p, rng):
    sp = Space.lp(p, 5)
    for _ in range(200):
        x = rng.standard_normal(5)
        u = rng.standard_normal(5)
        lhs = abs(u @ x)
        rhs = sp.dual_norm(u) * sp.norm(x)
        assert lhs <= rhs * (1 + 1e-12)


@pytest.mark.parametrize("p", ALL_PS)
def test_one_unconditionality_exact(p, rng):
    sp = Space.lp(p, 4)
    for _ in range(50):
        x = rng.standard_normal(4)
        for signs in ([1, -1, 1, -1], [-1, -1, 1, 1], [-1, -1, -1, -1]):
            assert sp.norm(np.asarray(signs) * x) == sp.norm(x)


@pytest.mark.parametrize("p", ALL_PS)
def test_basis_duality_product(p):
    sp = Space.lp(p, 4)
    for n in range(1, 5):
        e = np.eye(4)[n - 1]
        assert sp.dual_norm(e) * sp.norm(e) == 1.0


@pytest.mark.parametrize("p", ALL_PS)
def test_norm_monotone_on_positive_cone(p, rng):
    sp = Space.lp(p, 5)
    for _ in range(100):
        x = np.abs(rng.standard_normal(5))
        y = x + np.abs(rng.standard_normal(5))
        assert sp.norm(x) <= sp.norm(y) * (1 + 1e-15)


@pytest.mark.parametrize("p", ALL_PS)
def test_triangle_inequality(p, rng):
    sp = Space.lp(p, 5)
    for _ in range(100):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        assert sp.norm(x + y) <= (sp.norm(x) + sp.norm(y)) * (1 + 1e-12)


def test_parse_space_forms():
    assert parse_space("l1:4") == Space.lp(1, 4)
    assert parse_space("l2:6") == Space.lp(2, 6)
    assert parse_space("linf:3") == Space.lp(math.inf, 3)
    assert parse_space("lp:2.5:4") == Space.lp(2.5, 4)


@pytest.mark.parametrize("text", ["l1:4", "l2:6", "linf:3", "lp:2.5:4", "lp:1.0000001:2"])
def test_space_str_round_trips(text):
    # lift-verify and lemma44 reports name their space by str(space)
    assert str(parse_space(text)) == text


@pytest.mark.parametrize("bad", ["", "l3:4", "lp:0.5:4", "wlp:2:[]", "l1:x", "wlp:2:[1,a]"])
def test_parse_space_rejects(bad):
    with pytest.raises(SpaceSyntaxError):
        parse_space(bad)


def test_space_validation():
    with pytest.raises(ValueError):
        Space.lp(0.5, 3)
    with pytest.raises(ValueError):
        Space.lp(2, 0)


def _power_sum_norms(z, r):
    """ell_r norms along the last axis by numpy's own reductions:
    _root(add.reduce(|z|^r)), maximum.reduce(|z|) at r = inf, and above
    LARGE_EXPONENT the same relative to each row's largest entry."""
    a = np.abs(z)
    if r == math.inf:
        return np.maximum.reduce(a, axis=-1)
    m = np.ones(a.shape[:-1] + (1,))
    if r > LARGE_EXPONENT:
        m = np.maximum.reduce(a, axis=-1, keepdims=True)
        m[m == 0.0] = 1.0
    a = a / m
    powers = a if r == 1.0 else a * a if r == 2.0 else np.power(a, r)
    return _root(np.add.reduce(powers, axis=-1), r) * m[..., 0]


@pytest.mark.parametrize("p", ALL_PS + [1.0 + 1e-7])
@pytest.mark.parametrize("d", [1, 3, 8, 40])
def test_stacked_norms_match_each_row(p, d, rng):
    # the norms of a stack along its last axis have the bits of each row's norm
    sp = Space.lp(p, d)
    stack = rng.standard_normal((4, 5, d)) * rng.uniform(1e-3, 1e3, (4, 5, 1))
    stack[2, 3] = 0.0
    for r, norm_of in ((sp.q, sp.dual_norm), (sp.p, sp.norm)):
        norms = _dual_norms(stack, r)
        assert norms.shape == (4, 5)
        want = [[norm_of(row) for row in block] for block in stack]
        assert np.array_equal(norms.view(np.int64), np.array(want).view(np.int64))
        assert norms[2, 3] == 0.0
        # rows shorter than 8 are folded column by column, with the bits
        # of numpy's reduction along the row
        assert norms.tobytes() == _power_sum_norms(stack, r).tobytes()
    assert isinstance(sp.dual_norm(stack[0, 0]), float)
