"""Norm machinery for the free Banach lattice over a finite-dimensional space.

The norm of a positively homogeneous f is the sup of sum_i |f(x_i*)| over
finite tuples (x_i*) with sup_{x in B} sum_i |x_i*(x)| <= 1.  Three tools:

* tuple_constraint -- the admissibility constant C of a tuple, computed
  exactly by sign-cube enumeration (C = max_eps ||sum_i eps_i x_i*||_dual).
* fbl_lower_bounds -- randomized-restart hill climbing over tuples of a fixed
  size, for many weighted sums of shared terms at once (fbl_lower_bound is
  the one-expression case); moves are scored incrementally, and each best
  tuple is re-certified by tuple_constraint, so every returned ratio is a
  valid lower bound.
* upper_bound_finite_coords -- the |support| * sup_{face} |f| upper bound for
  functions over ell_1 that depend on finitely many coordinates.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import kernels, spaces
from .homfun import HomExpr, eval_batch, eval_terms, finite
from .spaces import (
    ConfigError,
    DimensionMismatch,
    InputError,
    Space,
    _rng,
    check_finite_functionals,
    check_seed,
    check_sign_tensor,
    check_tuple_size,
)

__all__ = [
    "SearchConfig",
    "NormEstimate",
    "UpperBound",
    "DependenceError",
    "tuple_constraint",
    "fbl_lower_bound",
    "fbl_lower_bounds",
    "search_elements",
    "dim1_norm",
    "upper_bound_finite_coords",
]

# float64 arrays of the moved functionals' shape (2kd rows of d per
# restart) that one search step holds at once, its terms' values included
# (measured with tracemalloc on the lifting generators)
ROW_ARRAYS = 5

# upper_bound_finite_coords' dependence probe: samples of _rng(PROBE_SEED, 101)
PROBE_SAMPLES = 64
PROBE_SEED = 0

# hill-climbing schedule; 20 decay rounds so the final step (~4e-4) resolves
# ratios at lattice kinks to well under 1e-3
STEP_INIT = 0.5
STEP_DECAY = 0.7
DECAY_ROUNDS = 20


class DependenceError(InputError):
    """Function depends on coordinates outside the declared support."""


def tuple_constraint(space: Space, functionals) -> tuple[float, np.ndarray]:
    """Exact admissibility constant of a functional tuple, with certificate.

    Returns (C, eps) where C = sup_{x in B} sum_i |x_i*(x)| and eps is the
    sign pattern attaining it (first sign fixed +1; lexicographically smallest
    on ties).
    """
    X = np.asarray(functionals, dtype=np.float64)
    if X.ndim != 2:
        raise ConfigError(
            f"functionals must form a (k, {space.dim}) array, got shape {X.shape}"
        )
    k, d = X.shape
    if d != space.dim:
        raise ConfigError(f"functionals have {d} coordinates, space has {space.dim}")
    check_tuple_size(k)
    check_sign_tensor(kernels.pattern_elements(1, k, d), "use fewer functionals")
    check_finite_functionals(X)
    norms = kernels.pattern_norms([X[None]], space.q)
    idx = int(np.argmax(norms))
    # row idx of sign_patterns(k), built alone: past k = CACHED_PATTERNS
    # the matrix is rebuilt per call, and pattern_norms has built it once
    return float(norms[idx]), kernels.sign_rows(k, np.array([idx]))[0]


@dataclass(frozen=True)
class SearchConfig:
    k: int = 2
    restarts: int = 100
    local_steps: int = 8
    seed: int = 0

    def __post_init__(self):
        check_tuple_size(self.k)
        if self.restarts < 1:
            raise ConfigError("need at least one restart")
        if self.local_steps < 1:
            raise ConfigError("need at least one local step")
        check_seed(self.seed)


@dataclass
class NormEstimate:
    """A certified lower bound for the free-lattice norm of an expression."""

    lower_bound: float
    objective: float
    constraint: float
    witness: np.ndarray
    certificate_signs: tuple[float, ...]
    restarts: int
    evaluations: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "lower_bound": self.lower_bound,
            "objective": self.objective,
            "constraint": self.constraint,
            "witness": [list(row) for row in self.witness],
            "certificate_signs": list(self.certificate_signs),
            "restarts": self.restarts,
            "evaluations": self.evaluations,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _fvalues(terms, W, space, X):
    """|sum_j W[j] * term_j(x*)| at the functionals X, shape (L, B, d).

    W: (m, B) weights, one column per tuple of the batch.  The terms are
    added in order from zero, each scaled elementwise, exactly as an Add of
    Scale nodes evaluates them.  The terms weighted on every column of W
    are evaluated together, in one eval_terms call on all the rows.  Every
    other term is evaluated alone, only on the columns where its weight is
    nonzero; a zero weight would add only +-0, which the absolute value
    removes.  A non-finite value is an input error.  The caller ignores
    numpy's overflow and invalid warnings (the check below reports them).
    Returns (L, B).
    """
    L, B, d = X.shape
    full = (W != 0.0).all(axis=1)
    batched = iter(eval_terms([t for t, f in zip(terms, full) if f], space, X.reshape(-1, d)))
    vals = np.zeros((L, B))
    for term, w, f in zip(terms, W, full):
        if f:
            vals = vals + w * next(batched).reshape(L, B)
            continue
        cols = w.nonzero()[0]
        if cols.size:
            t = eval_terms([term], space, X[:, cols].reshape(-1, d))[0]
            vals[:, cols] = vals[:, cols] + w[cols] * t.reshape(L, cols.size)
    return np.abs(finite(vals))


def _ratios(obj, C):
    """obj / C in place of obj, with -inf where the constraint is zero; the
    caller ignores numpy's division warnings."""
    ratio = np.divide(obj, C, out=obj)
    np.copyto(ratio, -np.inf, where=~(C > 0.0))
    return ratio


@functools.lru_cache(maxsize=None)
def _others_index(k):
    """index[c, i] = c + (c >= i), the c-th functional other than i, shape
    (k-1, k); cached, one per tuple size (check_tuple_size), and read-only."""
    c = np.arange(k - 1)[:, None]
    out = c + (c >= np.arange(k))
    out.flags.writeable = False
    return out


def _neighbourhood(terms, W, space, X, Z, fvals, new, stale, step):
    """Ratio of every move (i, j, s) of each tuple in a batch.

    X: (k, B, d) tuples, W: (m, B) their objective weights (see _fvalues),
    Z = kernels.signed_sums(X, S), fvals: (k, B) the values |f(x_i*)|,
    step: (B,).  Move (i, j, s) adds (1 - 2s) * step[b] to coordinate j of
    functional i of tuple b, and new: (k, d, 2, B) holds the f-values of
    the moved functionals.  Only the slots (i, b) that stale (k, B) marks,
    those whose functional or step changed since new was last filled, are
    evaluated: their 2d moved rows in one batch, written into new in place.
    Every other value was computed from the same row.  Returns the ratios
    (k, d, 2, B).
    """
    k, B, d = X.shape
    si, sb = stale.nonzero()
    # rows[j, s, p]: the functional of slot p with coordinate j moved
    rows = np.empty((d, 2, len(si), d))
    rows[...] = X[si, sb]
    # the moved coordinates rows[j, s, p, j], one strided view
    moved = np.ndarray((d, 2, len(si)), buffer=rows,
                       strides=(rows.strides[0] + rows.strides[3],) + rows.strides[1:3])
    moved += kernels.MOVE_SIGNS * step[sb]
    vals = _fvalues(terms, W[:, sb], space, rows.reshape(2 * d, -1, d))
    new[si, :, :, sb] = vals.reshape(d, 2, -1).transpose(2, 0, 1)
    # the other k-1 f-values of each tuple, added in index order along the
    # outer axis: each column's sum is the same at every batch width
    obj = fvals[_others_index(k)].sum(axis=0)[:, None, None] + new
    return _ratios(obj, kernels.move_constraints(Z, step, space.q))


def _search_temporaries(space: Space, config: SearchConfig) -> int:
    """Float64 elements one search of fbl_lower_bounds holds in a neighbourhood.

    Each neighbourhood scores 2kd moves of every restart at once: the
    temporaries of move_constraints in the branch of the space's q plus at
    most ROW_ARRAYS * 2kd * d for the moved functionals and each term's
    values on them.
    """
    k, d = config.k, space.dim
    return config.restarts * (kernels.move_elements(k, d, space.q) + ROW_ARRAYS * 2 * k * d * d)


def search_elements(space: Space, config: SearchConfig, searches: int = 1) -> int:
    """Float64 elements a batch of fbl_lower_bounds searches counts at its peak.

    The searches' temporaries, as many searches at once as
    fbl_lower_bounds runs under SIGN_TENSOR_CAP, or the certificate of
    one witness (tuple_constraint, after the search), whichever is more.
    One search over the cap is what fbl_lower_bounds refuses.
    """
    per_search = _search_temporaries(space, config)
    at_once = min(searches, max(1, spaces.SIGN_TENSOR_CAP // per_search))
    return max(at_once * per_search, kernels.pattern_elements(1, config.k, space.dim))


def fbl_lower_bound(expr: HomExpr, space: Space, config: SearchConfig) -> NormEstimate:
    """Best lower bound for the norm of expr: one search of fbl_lower_bounds."""
    return fbl_lower_bounds([expr], [[1.0]], space, config)[0]


def fbl_lower_bounds(terms, weights, space: Space, config: SearchConfig) -> list[NormEstimate]:
    """Lower bounds for the norms of the combinations sum_j weights[e, j] * terms[j].

    One seeded multistart hill climb per row e of weights (E, m).  The R
    start tuples are one standard-normal draw (R, k, d) from the stream
    spaces._rng(seed, 0), the same R tuples for every search; restart r
    takes row r.  numpy fills the draw in stream order, so restart r's
    tuple does not depend on R.  Then each restart refines by
    single-coordinate perturbations with a geometrically decaying step.
    All E*R restarts climb in lockstep, so each neighbourhood evaluates
    each term once for all the searches that weight it; a search whose
    weight on a term is zero does not evaluate that term, so with weights
    eye(E) each of E expressions is evaluated only for its own search.
    The loop runs over the live restarts only: a restart retires when its
    last decay round ends, and the loop state drops it on that iteration.
    Results are deterministic.  Each restart's arithmetic does not depend
    on which or how many others are live, so a restart climbs as it would
    alone, and results are the same as E separate searches; not so with
    delta terms, whose values are one BLAS product over a call's rows: a
    row's sum can change with the other rows (seen at d >= 8).  Results
    are monotone in the restart budget only up to the last bits: the best
    restart is the one with the best ratio as the search computed it, and
    its objective and constraint are computed afresh for the report.  Each restart keeps its signed sums, its f-values
    and the f-values of all its 2kd moved functionals.  Move (i, j, s)
    adds kernels.MOVE_SIGNS[s, 0] times the step to coordinate j of
    functional i, as move_constraints scores it, and costs one column of
    signed sums, which an accepted move updates in place; after it only
    the moved functional's 2d moved rows are evaluated afresh, after a
    decay all 2kd of them.  The search refuses up front a batch whose
    live temporaries (the move constraints' sign-cube tensors, the moved
    functionals and each term's values on them), or the certificate of its
    witness, would exceed SIGN_TENSOR_CAP elements, and runs as many
    searches at once as stay under it.
    """
    terms = tuple(terms)
    W = np.asarray(weights, dtype=np.float64)
    if W.ndim != 2 or W.shape[1] != len(terms):
        raise DimensionMismatch(
            f"weights must have shape (E, {len(terms)}), got {W.shape}"
        )
    k, d, R = config.k, space.dim, config.restarts
    per_search = _search_temporaries(space, config)
    check_sign_tensor(search_elements(space, config), "lower --k or --restarts")

    # restart r's (k, d) tuple is row r of one draw; restarts along axis 1
    X0 = _rng(config.seed, 0).standard_normal((R, k, d)).transpose(1, 0, 2)
    # as many searches at once as keep the temporaries under the cap
    chunk = spaces.SIGN_TENSOR_CAP // per_search
    return [est for lo in range(0, len(W), chunk)
            for est in _lockstep(terms, W[lo:lo + chunk], space, config, X0)]


# overflow and invalid values are caught by the finiteness check of
# _fvalues, divisions by a zero constraint replaced by _ratios; one errstate
# covers the whole search
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _lockstep(terms, W, space, config, X0):
    """The searches of fbl_lower_bounds for the weight rows W (E, m)."""
    E, R = len(W), config.restarts
    k, d = config.k, space.dim
    S = kernels.sign_patterns(k)

    # search-major: restart r of search e is column e*R + r
    X = np.tile(X0, (1, E, 1))
    Wb = np.repeat(W.T, R, axis=1)
    fvals = _fvalues(terms, Wb, space, X)
    Z = kernels.signed_sums(X, S)
    # cumsum adds the k f-values in order at every batch width; a sum over
    # a lone column would switch to pairwise blocks from k = 9 on.  The
    # start constraints come from the signed sums the moves are scored
    # from, each pattern's coordinates one contiguous row: numpy sums such
    # a row alike at every batch width, but along axis 1 of Z it would add
    # a lone restart's coordinates pairwise from d = 8 on, a batch's in order
    cur = _ratios(fvals.cumsum(axis=0)[-1], kernels._dual_norms(
        np.ascontiguousarray(Z.transpose(0, 2, 1)), space.q).max(axis=0))

    # the loop state holds the live restarts only, ids their columns; a
    # retiring restart leaves its tuple and ratio in X_out and cur_out
    X_out, cur_out = np.empty_like(X), np.empty_like(cur)
    visits = np.zeros(E * R, dtype=int)  # neighbourhoods scored per restart
    ids = np.arange(E * R)
    step = np.full(E * R, STEP_INIT)
    rounds_left = np.full(E * R, DECAY_ROUNDS, dtype=int)
    moves_left = np.full(E * R, config.local_steps, dtype=int)
    # the f-values of every move, kept between neighbourhoods (see
    # _neighbourhood); at first every slot is stale
    new = np.empty((k, d, 2, E * R))
    stale = np.ones((k, E * R), dtype=bool)

    it = 0
    while ids.size:
        ratio = _neighbourhood(terms, Wb, space, X, Z, fvals, new, stale, step)
        it += 1
        # moves in (i, j, s) order; argmax takes the first best one
        ratio = ratio.reshape(-1, ids.size)
        best_idx = ratio.argmax(axis=0)
        best_val = ratio.max(axis=0)
        improved = best_val > cur

        # apply each accepted move: coordinate j of functional i, column j
        # of the signed sums; x + delta has the bits of the scored moved row
        n = improved.nonzero()[0]
        i, j, s = np.unravel_index(best_idx[n], (k, d, 2))
        delta = kernels.MOVE_SIGNS[s, 0] * step[n]
        X[i, n, j] += delta
        Z[:, j, n] += delta * S[:, i]
        fvals[i, n] = new[i, j, s, n]
        np.maximum(cur, best_val, out=cur)
        moves_left -= improved

        # a round ends when no move improves or the move budget is spent
        decayed = ~improved | (moves_left == 0)
        np.multiply(step, STEP_DECAY, out=step, where=decayed)
        rounds_left -= decayed
        np.copyto(moves_left, config.local_steps, where=decayed)
        # the moved rows changed with the step, or with the moved functional
        stale[:] = decayed
        stale[i, n] = True

        if not rounds_left.all():
            # every live restart has scored every neighbourhood so far
            done = rounds_left == 0
            gone = ids[done]
            X_out[:, gone] = X[:, done]
            cur_out[gone] = cur[done]
            visits[gone] = it
            live = ~done
            ids, cur, step, rounds_left, moves_left = (
                ids[live], cur[live], step[live], rounds_left[live], moves_left[live])
            X, fvals, Wb = X[:, live], fvals[:, live], Wb[:, live]
            # a C-contiguous copy: Z[:, :, live] is a transposed one, on
            # which move_constraints takes 1.2 to 2.5 times as long
            Z = np.compress(live, Z, axis=2)
            new, stale = new[..., live], stale[:, live]
    X, cur = X_out, cur_out

    evals = R + 2 * k * d * visits.reshape(E, R).sum(axis=1)
    # each search's first best restart; argmax takes the first maximum
    best = np.arange(E) * R + cur.reshape(E, R).argmax(axis=1)
    # the objectives afresh from the terms, not from the kept f-values: one
    # column per witness, each summed alone as a lone column would be
    objs = _fvalues(terms, W.T, space, X[:, best])
    out = []
    for e in range(E):
        witness = X[:, best[e]]
        C, eps = tuple_constraint(space, witness)
        if C == 0.0:
            raise ConfigError(
                f"search on {space} with k={k}, seed={config.seed} converged to "
                "an all-zero tuple"
            )
        obj = float(objs[:, e].sum())
        out.append(NormEstimate(
            lower_bound=obj / C,
            objective=obj,
            constraint=C,
            witness=witness.copy(),
            certificate_signs=tuple(float(v) for v in eps),
            restarts=R,
            evaluations=int(evals[e]),
            seed=config.seed,
        ))
    return out


def dim1_norm(expr: HomExpr, space: Space) -> float:
    """Closed form at dimension 1: the norm equals max(|f(1)|, |f(-1)|).

    Independent oracle: any admissible tuple's objective is bounded by this
    value via homogeneity, and the single functional +-1 attains it.
    """
    if space.dim != 1:
        raise ConfigError("closed form only applies in dimension 1")
    fp = eval_batch(expr, space, np.array([[1.0], [-1.0]]))
    return float(np.abs(fp).max())


@dataclass
class UpperBound:
    """Grid-estimated Claim-type upper bound: |support| * sup over faces."""

    value: float
    face_sup: float
    support: tuple[int, ...]
    grid: int
    approximate: bool = True

    def to_dict(self) -> dict:
        return {
            "upper_bound": self.value,
            "face_sup": self.face_sup,
            "support": list(self.support),
            "grid": self.grid,
            "approximate": self.approximate,
        }


def upper_bound_finite_coords(expr: HomExpr, space: Space, support,
                              grid: int = 33) -> UpperBound:
    """Upper bound for f over ell_1^d when f depends only on `support`.

    The bound is sup over the faces of the sup-norm unit cube (restricted to
    the support coordinates) of |f|, times the support size.  The sup is a
    grid estimate; grid points include all cube vertices, so for piecewise
    linear f whose kinks lie on the grid the bound is exact.
    """
    if space.p != 1.0:
        raise ConfigError("the finite-coordinate upper bound requires an ell_1 space")
    support = tuple(sorted(set(int(a) for a in support)))
    if not support or support[0] < 1 or support[-1] > space.dim:
        raise ConfigError(f"support must be a nonempty subset of 1..{space.dim}")

    _probe_dependence(expr, space, support)

    s = len(support)
    cols = [a - 1 for a in support]
    ticks = np.linspace(-1.0, 1.0, grid)
    # the values of the s - 1 free coordinates, one grid point a row
    combos = np.array(list(product(ticks, repeat=s - 1))).reshape(grid ** (s - 1), s - 1)
    # one block of those points per face, the faces in (position, sign) order
    points = np.zeros((2 * s, len(combos), space.dim))
    for face, (pos, sign) in zip(points, product(range(s), (1.0, -1.0))):
        face[:, cols[pos]] = sign
        face[:, [c for i, c in enumerate(cols) if i != pos]] = combos
    vals = np.abs(eval_batch(expr, space, points.reshape(-1, space.dim)))
    face_sup = float(vals.max())
    return UpperBound(value=face_sup * s, face_sup=face_sup, support=support, grid=grid)


def _probe_dependence(expr, space, support):
    off = [j for j in range(space.dim) if (j + 1) not in support]
    if not off:
        return
    rng = _rng(PROBE_SEED, 101)
    X = rng.standard_normal((PROBE_SAMPLES, space.dim))
    X[:, off] = 0.0
    base = eval_batch(expr, space, X)
    Y = X.copy()
    Y[:, off] = rng.standard_normal((PROBE_SAMPLES, len(off)))
    perturbed = eval_batch(expr, space, Y)
    bad = np.nonzero(perturbed != base)[0]
    if bad.size:
        i = int(bad[0])
        raise DependenceError(
            f"function depends on coordinates outside {support}: "
            f"value changed from {base[i]} to {perturbed[i]} under an "
            "off-support perturbation"
        )
