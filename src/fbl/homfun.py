"""Positively homogeneous functions on the dual space, as expression trees.

An expression is built from evaluation generators d(x) (x a coordinate
vector), scalar multiples, sums, lattice operations (join `v`, meet `^`,
absolute value, positive part), and the closed-form built-ins f(n) and
h(n,k): the disjoint generator family and its truncations, parameterized by
the cutoff sequences (M_n), (N_n) and a ramp family g_m.  eval_terms
evaluates several expressions on one batch of functionals with one
kernels.hom_batch call per LiftParams for all their f(n)/h(n,k) leaves;
eval_batch is its one-term case.

Grammar (ASCII):

    expr   := meet ( "v" meet )*
    meet   := sum ( "^" sum )*
    sum    := prod ( ("+"|"-") prod )*
    prod   := [ number "*" ] atom
    atom   := "d(" number ("," number)* ")" | "|" expr "|" | "pos(" expr ")"
            | "f(" int ")" | "h(" int "," int ")" | "(" expr ")"
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import kernels
from .spaces import ConfigError, DimensionMismatch, InputError, Space

__all__ = [
    "LiftParams",
    "HomExpr",
    "Delta",
    "Scale",
    "Add",
    "Abs",
    "Pos",
    "Join",
    "Meet",
    "BuiltinF",
    "BuiltinH",
    "ExprSyntaxError",
    "GeneratorIndexError",
    "MAX_DEPTH",
    "parse",
    "to_text",
    "eval_expr",
    "eval_batch",
    "eval_terms",
    "finite",
]


# ---------------------------------------------------------------------------
# cutoff parameters


@dataclass(frozen=True)
class LiftParams:
    """Cutoff sequences M_n < N_n = 2 M_n and the ramp family g_m.

    M_n = m_values[n - 1], or by default (None) M_n = 2^n, whose tail sum_{j>t}
    1/M_j is exactly 2^-t; the linear ramp g_m(t) = clamp((N_m - t)/(N_m - M_m), 0, 1).
    """

    m_values: tuple[float, ...] | None = None

    def __post_init__(self):
        vals = self.m_values
        if vals is None:
            return
        if not vals:
            raise ConfigError("custom M sequence needs at least one value")
        # comparisons written so that NaN fails them; N_n = 2*M_n must
        # stay a finite float64, or the ramps are NaN
        if not all(0 < v and 2.0 * v < math.inf for v in vals):
            raise ConfigError("M values must be strictly positive with N = 2M finite")
        if not all(a < b for a, b in zip(vals, vals[1:])):
            raise ConfigError("M sequence must be strictly increasing")

    def M(self, n: int) -> float:
        if self.m_values is None:
            # N_n = 2^(n+1) must stay a finite float64
            if n > 1022:
                raise ConfigError(f"pow2 M sequence has no float64 term {n} (largest is 1022)")
            return float(2**n)
        if n > len(self.m_values):
            raise ConfigError(f"custom M sequence has no term {n}")
        return self.m_values[n - 1]

    def N(self, n: int) -> float:
        # N_n = 2*M_n: strictly increasing and > M_n for both sequences.
        return 2.0 * self.M(n)

    @lru_cache(maxsize=None)
    def arrays(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([self.M(n) for n in range(1, d + 1)]),
                np.array([self.N(n) for n in range(1, d + 1)]))

    def g(self, m: int, t: float) -> float:
        """Ramp value g_m(t) in [0, 1]; 1 on [0, M_m], 0 on [N_m, inf)."""
        if t < 0:
            raise ConfigError(f"ramp argument must be nonnegative, got {t}")
        Mm, Nm = self.M(m), self.N(m)
        return float(min(max((Nm - t) / (Nm - Mm), 0.0), 1.0))

    def tail_bound(self, t: int, dim: int) -> float:
        """Upper bound for sum_{j>t} 1/M_j (only indices <= dim matter)."""
        if self.m_values is None:
            return 2.0 ** (-t)
        return sum((1.0 / self.M(j) for j in range(t + 1, dim + 1)), 0.0)


# ---------------------------------------------------------------------------
# AST


class HomExpr:
    """Base class for expression nodes.  Immutable; evaluation is pure."""

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True)
class Delta(HomExpr):
    coords: tuple[float, ...]
    # the coordinates as a read-only float64 array, built once
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, coords):
        coords = tuple(float(c) for c in coords)
        array = np.array(coords)
        array.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "array", array)


@dataclass(frozen=True)
class Scale(HomExpr):
    c: float
    child: HomExpr


@dataclass(frozen=True)
class Add(HomExpr):
    children: tuple[HomExpr, ...]

    def __init__(self, children):
        object.__setattr__(self, "children", tuple(children))


@dataclass(frozen=True)
class Abs(HomExpr):
    child: HomExpr


@dataclass(frozen=True)
class Pos(HomExpr):
    child: HomExpr


@dataclass(frozen=True)
class Join(HomExpr):
    left: HomExpr
    right: HomExpr


@dataclass(frozen=True)
class Meet(HomExpr):
    left: HomExpr
    right: HomExpr


@dataclass(frozen=True)
class BuiltinF(HomExpr):
    n: int
    params: LiftParams = field(default_factory=LiftParams)


@dataclass(frozen=True)
class BuiltinH(HomExpr):
    n: int
    k: int
    params: LiftParams = field(default_factory=LiftParams)


# ---------------------------------------------------------------------------
# evaluation


def eval_batch(expr: HomExpr, space: Space, X: np.ndarray) -> np.ndarray:
    """Evaluate expr at each row of X (shape (N, d)); returns shape (N,)."""
    return eval_terms([expr], space, X)[0]


def eval_expr(expr: HomExpr, space: Space, xstar) -> float:
    """Evaluate expr at a single functional (coordinate array of length d)."""
    return float(eval_terms([expr], space, space.check_coords(xstar)[None, :])[0][0])


def eval_terms(terms, space: Space, X: np.ndarray) -> list[np.ndarray]:
    """Evaluate each expression of terms at each row of X (shape (N, d)).

    Returns one (N,) array per term, bit for bit its eval_batch.  The
    f(n)/h(n,k) leaves of all the terms are evaluated together: one
    kernels.hom_batch call per LiftParams on the whole batch, each
    distinct leaf (n, mhi) once.  A term that is a bare leaf gets a row of
    that call's result, which keeps the call's work buffer alive.  Every
    node is checked before any is evaluated, in evaluation order, so a bad
    tree raises what evaluating it term by term would raise first.
    """
    X = np.asarray(X, dtype=np.float64)
    d = space.dim
    if X.ndim != 2 or X.shape[1] != d:
        raise DimensionMismatch(
            f"functional batch must have shape (N, {d}), got {X.shape}"
        )
    leaves = {}
    for term in terms:
        _collect(term, d, leaves)
    values = {}
    for params, spans in leaves.items():
        spans = list(spans)
        rows = kernels.hom_batch(X, spans, *params.arrays(d))
        values[params] = dict(zip(spans, rows))
    return [_eval(term, X, values) for term in terms]


def finite(values):
    """An expression's values, refused as an InputError if one is not finite."""
    if not np.isfinite(values).all():
        raise InputError("expression evaluated to a non-finite value")
    return values


def _span(leaf, dim):
    """(n, mhi) of an f(n)/h(n,k) node: the leaf kernels.hom_batch evaluates."""
    if isinstance(leaf, BuiltinF):
        return leaf.n, dim
    return leaf.n, min(leaf.n + leaf.k, dim)


def _collect(expr, dim, leaves):
    """Check expr against a dim-dimensional space, in evaluation order, and
    add its leaves to leaves[params], a dict used as an ordered set."""
    if isinstance(expr, (BuiltinF, BuiltinH)):
        _check_index(expr.n, dim)
        if isinstance(expr, BuiltinH) and expr.k < 0:
            raise GeneratorIndexError(f"truncation level must be >= 0, got {expr.k}")
        spans = leaves.get(expr.params)
        if spans is None:
            expr.params.arrays(dim)  # a sequence too short for dim raises here
            spans = leaves[expr.params] = {}
        spans[_span(expr, dim)] = None
    elif isinstance(expr, Delta):
        if len(expr.coords) != dim:
            raise DimensionMismatch(
                f"generator has {len(expr.coords)} coordinates in a "
                f"{dim}-dimensional space"
            )
    elif isinstance(expr, (Scale, Abs, Pos)):
        _collect(expr.child, dim, leaves)
    elif isinstance(expr, (Join, Meet)):
        _collect(expr.left, dim, leaves)
        _collect(expr.right, dim, leaves)
    elif isinstance(expr, Add):
        for child in expr.children:
            _collect(child, dim, leaves)
    else:
        raise TypeError(f"not a HomExpr node: {expr!r}")


def _eval(expr, X, values):
    # values[params][(n, mhi)]: the leaves' values; _collect checked every node
    if isinstance(expr, (BuiltinF, BuiltinH)):
        return values[expr.params][_span(expr, X.shape[1])]
    if isinstance(expr, Delta):
        return X @ expr.array
    if isinstance(expr, Scale):
        return expr.c * _eval(expr.child, X, values)
    if isinstance(expr, Add):
        out = np.zeros(X.shape[0])
        for child in expr.children:
            out = out + _eval(child, X, values)
        return out
    if isinstance(expr, Abs):
        return np.abs(_eval(expr.child, X, values))
    if isinstance(expr, Pos):
        return np.maximum(_eval(expr.child, X, values), 0.0)
    if isinstance(expr, Join):
        return np.maximum(_eval(expr.left, X, values), _eval(expr.right, X, values))
    if isinstance(expr, Meet):
        return np.minimum(_eval(expr.left, X, values), _eval(expr.right, X, values))
    raise TypeError(f"not a HomExpr node: {expr!r}")


class GeneratorIndexError(InputError, IndexError):
    """An f(n)/h(n,k) index outside the space: n not in 1..d, or k < 0."""


def _check_index(n, dim):
    if not 1 <= n <= dim:
        raise GeneratorIndexError(f"generator index {n} out of range 1..{dim}")


# ---------------------------------------------------------------------------
# parser

# deepest nesting of ( | pos( accepted by the parser, and deepest node of
# the parsed tree; keeps parsing, evaluation and printing off the
# interpreter's recursion limit
MAX_DEPTH = 100


class ExprSyntaxError(InputError):
    def __init__(self, message: str, position: int):
        # args are the constructor's arguments, from which pickle rebuilds it
        super().__init__(message, position)
        self.position = position

    def __str__(self):
        return f"{self.args[0]} (offset {self.position})"


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[a-z]+)|(?P<sym>[-+*^|(),]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.group("num"):
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, params):
        self.tokens = tokens
        self.i = 0
        self.params = params
        self.depth = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ExprSyntaxError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def number(self):
        tok = self.next()
        sign = 1.0
        if tok[:2] == ("sym", "-"):
            sign = -1.0
            tok = self.next()
        if tok[0] != "num":
            raise ExprSyntaxError(f"expected a number, found {tok[1] or 'end of input'!r}", tok[2])
        value = float(tok[1])
        if value == math.inf:
            raise ExprSyntaxError(f"number {tok[1]} overflows float64", tok[2])
        return sign * value

    def integer(self):
        tok = self.next()
        if tok[0] != "num" or not tok[1].isdigit():
            raise ExprSyntaxError(f"expected an integer, found {tok[1] or 'end of input'!r}", tok[2])
        return int(tok[1])

    def expr(self):
        node = self.meet()
        while self.peek()[:2] == ("name", "v"):
            self.next()
            node = Join(node, self.meet())
        return node

    def meet(self):
        node = self.sum()
        while self.peek()[:2] == ("sym", "^"):
            self.next()
            node = Meet(node, self.sum())
        return node

    def sum(self):
        node = self.prod()
        terms = [node]
        while self.peek()[0] == "sym" and self.peek()[1] in "+-":
            op = self.next()[1]
            term = self.prod()
            terms.append(Scale(-1.0, term) if op == "-" else term)
        return terms[0] if len(terms) == 1 else Add(terms)

    def _at_scale(self):
        # a (possibly negated) number followed by '*'
        j = 1 if self.peek()[:2] == ("sym", "-") else 0
        return self.peek(j)[0] == "num" and self.peek(j + 1)[:2] == ("sym", "*")

    def prod(self):
        if self._at_scale():
            c = self.number()
            self.expect("sym", "*")
            return Scale(c, self.atom())
        return self.atom()

    def enclosed(self, close):
        """The expression after an opening token, up to the `close` symbol."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels",
                                  self.peek()[2])
        inner = self.expr()
        self.expect("sym", close)
        self.depth -= 1
        return inner

    def atom(self):
        tok = self.peek()
        if tok[:2] == ("name", "d"):
            self.next()
            self.expect("sym", "(")
            coords = [self.number()]
            while self.peek()[:2] == ("sym", ","):
                self.next()
                coords.append(self.number())
            self.expect("sym", ")")
            return Delta(coords)
        if tok[:2] == ("name", "pos"):
            self.next()
            self.expect("sym", "(")
            return Pos(self.enclosed(")"))
        if tok[:2] == ("name", "f"):
            self.next()
            self.expect("sym", "(")
            n = self.integer()
            self.expect("sym", ")")
            return BuiltinF(n, self.params)
        if tok[:2] == ("name", "h"):
            self.next()
            self.expect("sym", "(")
            n = self.integer()
            self.expect("sym", ",")
            k = self.integer()
            self.expect("sym", ")")
            return BuiltinH(n, k, self.params)
        if tok[:2] == ("sym", "|"):
            self.next()
            return Abs(self.enclosed("|"))
        if tok[:2] == ("sym", "("):
            self.next()
            return self.enclosed(")")
        raise ExprSyntaxError(f"unexpected {tok[1] or 'end of input'!r}", tok[2])


def parse(text: str, params: LiftParams | None = None) -> HomExpr:
    """Parse an expression; f(n)/h(n,k) nodes pick up the supplied params."""
    parser = _Parser(_tokenize(text), params or LiftParams())
    node = parser.expr()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    _check_tree(node, set(), 0)
    return node


def _check_tree(node, dims, depth):
    # a chain of joins or meets nests one node per operator
    if depth > MAX_DEPTH:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", 0)
    if isinstance(node, Delta):
        dims.add(len(node.coords))
        if len(dims) > 1:
            raise ExprSyntaxError(
                f"generators of inconsistent dimensions {sorted(dims)}", 0
            )
    for name in ("child", "left", "right"):
        sub = getattr(node, name, None)
        if sub is not None:
            _check_tree(sub, dims, depth + 1)
    for sub in getattr(node, "children", ()):
        _check_tree(sub, dims, depth + 1)


# ---------------------------------------------------------------------------
# printer

_JOIN, _MEET, _SUM, _PROD, _ATOM = 1, 2, 3, 4, 5


def _num(x: float) -> str:
    return repr(float(x))


def _fmt(node) -> tuple[str, int]:
    if isinstance(node, Delta):
        return "d(" + ",".join(_num(c) for c in node.coords) + ")", _ATOM
    if isinstance(node, Abs):
        return "|" + _fmt(node.child)[0] + "|", _ATOM
    if isinstance(node, Pos):
        return "pos(" + _fmt(node.child)[0] + ")", _ATOM
    if isinstance(node, BuiltinF):
        return f"f({node.n})", _ATOM
    if isinstance(node, BuiltinH):
        return f"h({node.n},{node.k})", _ATOM
    if isinstance(node, Scale):
        return f"{_num(node.c)}*{_wrap(node.child, _ATOM)}", _PROD
    if isinstance(node, Add):
        return " + ".join(_wrap(c, _PROD) for c in node.children), _SUM
    if isinstance(node, Meet):
        return f"{_wrap(node.left, _MEET)} ^ {_wrap(node.right, _SUM)}", _MEET
    if isinstance(node, Join):
        return f"{_wrap(node.left, _JOIN)} v {_wrap(node.right, _MEET)}", _JOIN
    raise TypeError(f"not a HomExpr node: {node!r}")


def _wrap(node, min_level):
    text, level = _fmt(node)
    return f"({text})" if level < min_level else text


def to_text(expr: HomExpr) -> str:
    """Render an expression in the grammar; parse(to_text(e)) == e."""
    return _fmt(expr)[0]
