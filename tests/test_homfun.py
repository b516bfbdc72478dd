import math

import numpy as np
import pytest

from fbl.homfun import (
    Abs,
    Add,
    BuiltinF,
    BuiltinH,
    Delta,
    ExprSyntaxError,
    MAX_DEPTH,
    Join,
    LiftParams,
    Meet,
    Pos,
    Scale,
    eval_batch,
    eval_expr,
    parse,
    to_text,
)
from fbl.spaces import ConfigError, DimensionMismatch, Space

from conftest import random_expr

SP2 = Space.lp(2, 2)
P = LiftParams()


# ---------------------------------------------------------------------------
# cutoff parameters


def test_default_sequences():
    assert [P.M(n) for n in (1, 2, 3)] == [2, 4, 8]
    assert [P.N(n) for n in (1, 2, 3)] == [4, 8, 16]
    # default tail: sum_{j>t} 1/2^j = 2^-t; full sum is 1
    assert P.tail_bound(0, 50) == 1.0
    assert P.tail_bound(3, 50) == 0.125


def test_custom_sequence_validation():
    LiftParams(m_values=(1.0, 3.0, 9.0))
    with pytest.raises(ValueError):
        LiftParams(m_values=(3.0, 2.0))
    with pytest.raises(ValueError):
        LiftParams(m_values=(-1.0, 2.0))
    with pytest.raises(ValueError):
        LiftParams(m_values=())


def test_ramp_values():
    assert P.g(2, 3.0) == 1.0  # t <= M_2 = 4
    assert P.g(2, 8.0) == 0.0  # t >= N_2 = 8
    assert P.g(2, 6.0) == 0.5  # linear ramp (8-6)/(8-4)
    with pytest.raises(ValueError):
        P.g(2, -1.0)


def test_ramp_monotone_nonincreasing():
    ts = np.linspace(0, 20, 400)
    vals = [P.g(3, t) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_examples():
    assert eval_expr(Delta([1, 0]), SP2, [3, 5]) == 3.0
    e = Join(Abs(Delta([1, 0])), Abs(Delta([0, 1])))
    assert eval_expr(e, Space.lp(1, 2), [-2, 1]) == 2.0


def test_zero_functional_evaluates_to_zero(rng):
    # positive homogeneity forces f(0) = 0
    for _ in range(20):
        e = random_expr(rng, 3)
        assert eval_expr(e, Space.lp(2, 3), [0, 0, 0]) == 0.0


def test_positive_homogeneity(rng):
    sp = Space.lp(2, 4)
    for _ in range(50):
        e = random_expr(rng, 4)
        x = rng.standard_normal(4)
        lam = float(rng.uniform(1e-3, 10.0))
        a = eval_expr(e, sp, lam * x)
        b = lam * eval_expr(e, sp, x)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


def test_join_meet_are_pointwise_max_min(rng):
    sp = Space.lp(2, 3)
    for _ in range(50):
        a, b = random_expr(rng, 3), random_expr(rng, 3)
        x = rng.standard_normal(3)
        va, vb = eval_expr(a, sp, x), eval_expr(b, sp, x)
        assert eval_expr(Join(a, b), sp, x) == max(va, vb)
        assert eval_expr(Meet(a, b), sp, x) == min(va, vb)


def test_builtin_f_biorthogonal_values():
    sp = Space.lp(2, 5)
    for n in range(1, 6):
        for j in range(1, 6):
            ej = np.eye(5)[j - 1]
            assert eval_expr(BuiltinF(n, P), sp, ej) == (1.0 if j == n else 0.0)


def test_builtin_f_hand_value():
    # d=2, n=1, x*=(1,6): positive part 1, ramp factor g_2(6) = 0.5
    assert eval_expr(BuiltinF(1, P), Space.lp(2, 2), [1.0, 6.0]) == 0.5


def test_builtin_h_truncation():
    sp = Space.lp(2, 2)
    # truncation at level 0 drops the ramp factor
    assert eval_expr(BuiltinH(1, 0, P), sp, [1.0, 6.0]) == 1.0
    assert eval_expr(BuiltinF(1, P), sp, [1.0, 6.0]) == 0.5


def test_h_equals_f_at_full_depth(rng):
    sp = Space.lp(2, 5)
    X = rng.standard_normal((100, 5))
    for n in range(1, 6):
        for k in range(5 - n, 8):
            hv = eval_batch(BuiltinH(n, k), sp, X)
            fv = eval_batch(BuiltinF(n), sp, X)
            assert np.array_equal(hv, fv)


def test_h_dominates_f_and_decreases_in_k(rng):
    sp = Space.lp(2, 6)
    X = rng.standard_normal((200, 6))
    for n in range(1, 7):
        fv = eval_batch(BuiltinF(n), sp, X)
        prev = None
        for k in range(0, 6):
            hv = eval_batch(BuiltinH(n, k), sp, X)
            assert np.all(hv >= fv)
            if prev is not None:
                assert np.all(hv <= prev)
            prev = hv


def test_f_bounded_by_coordinate(rng):
    sp = Space.lp(2, 6)
    X = rng.standard_normal((500, 6))
    for n in range(1, 7):
        fv = eval_batch(BuiltinF(n), sp, X)
        assert np.all(fv >= 0.0)
        assert np.all(fv <= np.abs(X[:, n - 1]))


def test_f_pairwise_disjoint_exact(rng):
    sp = Space.lp(2, 8)
    X = rng.standard_normal((2000, 8))
    F = [eval_batch(BuiltinF(n), sp, X) for n in range(1, 9)]
    for n in range(8):
        for l in range(n + 1, 8):
            assert np.all(np.minimum(F[n], F[l]) == 0.0)


def test_builtin_index_errors():
    sp = Space.lp(2, 3)
    with pytest.raises(IndexError):
        eval_expr(BuiltinF(4, P), sp, [1, 2, 3])
    with pytest.raises(IndexError):
        eval_expr(BuiltinH(1, -1, P), sp, [1, 2, 3])


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        eval_expr(Delta([1, 0, 0]), SP2, [1, 2])
    with pytest.raises(DimensionMismatch):
        eval_expr(Delta([1, 0]), SP2, [1, 2, 3])


# ---------------------------------------------------------------------------
# parser and printer


def test_parse_examples():
    assert parse("d(1,0) v d(0,1)") == Join(Delta([1, 0]), Delta([0, 1]))
    assert parse("|d(1,-1)| ^ 2*d(0,1)") == Meet(
        Abs(Delta([1, -1])), Scale(2.0, Delta([0, 1]))
    )


def test_meet_binds_tighter_than_join():
    e = parse("d(1,0) v d(0,1) ^ d(1,1)")
    assert isinstance(e, Join) and isinstance(e.right, Meet)


def test_parse_sum_and_builtin():
    e = parse("f(1) + h(2,3) - 0.5*pos(d(1,0))")
    assert e == Add([
        BuiltinF(1),
        BuiltinH(2, 3),
        Scale(-1.0, Scale(0.5, Pos(Delta([1, 0])))),
    ])


@pytest.mark.parametrize("text, message, offset", [
    ("d(1 0)", "expected ')', found '0'", 4),
    ("h(1)", "expected ',', found ')'", 3),
    ("f(1,2)", "expected ')', found ','", 3),
    ("pos(d(1)", "expected ')', found 'end of input'", 8),
])
def test_parse_names_the_token_it_expected(text, message, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert (exc.value.args[0], exc.value.position) == (message, offset)


def test_parse_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("d(1,")
    assert exc.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse("d(1,0) v")
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("d(1,0) d(0,1)")


def test_parse_rejects_inconsistent_dimensions():
    with pytest.raises(ExprSyntaxError):
        parse("d(1,0) v d(1,0,0)")


def test_roundtrip_random_asts(rng):
    for _ in range(200):
        e = random_expr(rng, 3, depth=4)
        assert parse(to_text(e)) == e


def test_parse_uses_supplied_params():
    custom = LiftParams(m_values=(1.0, 10.0, 100.0))
    e = parse("f(2)", custom)
    assert e == BuiltinF(2, custom)
    assert e != BuiltinF(2)


def test_parse_depth_limit():
    open_, close = "(" * MAX_DEPTH, ")" * MAX_DEPTH
    assert parse(open_ + "d(1)" + close) == Delta([1])
    deep_abs = parse("|" * MAX_DEPTH + "d(1)" + "|" * MAX_DEPTH)
    assert parse(to_text(deep_abs)) == deep_abs
    parse(" v ".join(["d(1)"] * (MAX_DEPTH + 1)))  # MAX_DEPTH nested Join nodes
    for text in ("(" + open_ + "d(1)" + close + ")",
                 "pos(" * (MAX_DEPTH + 1) + "d(1)" + ")" * (MAX_DEPTH + 1),
                 " ^ ".join(["d(1)"] * (MAX_DEPTH + 2))):
        with pytest.raises(ExprSyntaxError, match="nested deeper"):
            parse(text)


def test_parse_rejects_overflowing_number():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("d(1,0) + 1e309*d(0,1)")
    assert exc.value.position == 9
    with pytest.raises(ExprSyntaxError):
        parse("d(-1e400)")
    assert parse("1e308*d(1)") == Scale(1e308, Delta([1]))


def test_custom_sequence_must_be_finite():
    for values in ((1.0, math.nan), (1.0, math.inf), (math.nan,), (2.0, math.nan, 3.0)):
        with pytest.raises(ConfigError):
            LiftParams(m_values=values)
