"""Finite-dimensional ell_p spaces with a normalized 1-unconditional basis.

Coordinates are always taken with respect to the *normalized* basis (every
basis vector has norm 1).  In those coordinates a weighted ell_p norm is
isometrically the plain ell_p norm, so the ell_p family covers it.

The shared refusals (caps, tuple size, seed), the ell_1 extreme-point
oracle and the seeded streams (_rng) live here too, so that the norm
search and the Lemma 4.4 suite share them without either loading the other.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .kernels import _dual_norms

__all__ = [
    "InputError",
    "ConfigError",
    "Space",
    "DimensionMismatch",
    "SpaceSyntaxError",
    "BasisIndexError",
    "parse_space",
    "SIGN_CUBE_CAP",
    "SIGN_TENSOR_CAP",
    "check_sign_tensor",
    "check_tuple_size",
    "check_seed",
    "check_finite_functionals",
    "l1_extreme_point_constraint",
]

SIGN_CUBE_CAP = 24
# most float64 elements a constraint evaluation may hold in sign-cube
# tensors at once (a search counts all its live temporaries): 512 MB
SIGN_TENSOR_CAP = 2**26


class InputError(ValueError):
    """A malformed or out-of-range expression or space (CLI exit 2)."""


class ConfigError(ValueError):
    """A configuration outside the supported ranges (CLI exit 3)."""


class DimensionMismatch(InputError):
    """Vector or functional length does not match the space dimension."""


class SpaceSyntaxError(InputError):
    """Malformed textual space description."""


class BasisIndexError(InputError, IndexError):
    """A basis index outside 1..d."""


def check_sign_tensor(elements: int, remedy: str, held: str = "the sign-cube tensors") -> None:
    """Refuse, before allocating, `held` over SIGN_TENSOR_CAP float64 elements."""
    if elements > SIGN_TENSOR_CAP:
        raise ConfigError(f"{held} would hold {elements} elements, over the cap of "
                          f"{SIGN_TENSOR_CAP}; {remedy}")


def check_tuple_size(k: int) -> None:
    """Refuse a tuple size outside 1..SIGN_CUBE_CAP, the sign cube's range."""
    if not 1 <= k <= SIGN_CUBE_CAP:
        raise ConfigError(f"tuple size must be in 1..{SIGN_CUBE_CAP}, got {k}")


def check_seed(seed: int) -> None:
    """Refuse a negative seed, which no numpy stream takes."""
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


def check_finite_functionals(X: np.ndarray) -> None:
    """Refuse functionals with a NaN or infinite coordinate."""
    if not np.isfinite(X).all():
        raise InputError("functionals must be finite")


def _rng(seed: int, *key: int) -> np.random.Generator:
    """The numpy stream of --seed for one drawn quantity, by its key.

    Every draw of the package goes through here, one key per quantity:
    (0,) the start tuples of a search (fblnorm.fbl_lower_bounds);
    (1, j) for j = 0..4 the five quantities of a lemma44 instance;
    (2,) check_disjoint's samples; (3,) check_beta_section's samples;
    (4, n, k) the samples of check_freenorms' unsearched pair (n, k);
    (9,) the coefficient vectors of verify.lift_verify; (101,) the probe of
    upper_bound_finite_coords.  A negative seed is a ConfigError.
    """
    check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def l1_extreme_point_constraint(functionals) -> np.ndarray:
    """Independent oracle for ell_1: C = max_j sum_i |x_i*(e_j)|.

    functionals: one (k, d) tuple or a stack (..., k, d) of them; returns
    one C per tuple.
    """
    X = np.asarray(functionals, dtype=np.float64)
    return np.abs(X).sum(axis=-2).max(axis=-1)


@dataclass(frozen=True)
class Space:
    """The d-dimensional ell_p space, in normalized-basis coordinates."""

    dim: int
    p: float

    def __post_init__(self):
        if self.dim < 1 or self.dim != int(self.dim):
            raise ConfigError(f"dimension must be a positive integer, got {self.dim}")
        if not (1.0 <= self.p <= math.inf):
            raise ConfigError(f"p must lie in [1, inf], got {self.p}")

    @classmethod
    def lp(cls, p: float, dim: int) -> "Space":
        return cls(dim=dim, p=float(p))

    @property
    def q(self) -> float:
        """Conjugate exponent: 1/p + 1/q = 1."""
        if self.p == 1.0:
            return math.inf
        if self.p == math.inf:
            return 1.0
        return self.p / (self.p - 1.0)

    def check_coords(self, coords) -> np.ndarray:
        """coords as a float64 vector of this space, or a DimensionMismatch."""
        a = np.asarray(coords, dtype=np.float64)
        if a.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected {self.dim} coordinates, got shape {a.shape}"
            )
        return a

    def norm(self, x) -> float:
        """Norm of a vector given by its coordinates in the normalized basis."""
        return float(_dual_norms(self.check_coords(x), self.p))

    def dual_norm(self, xstar) -> float:
        """Dual norm of a functional given by its biorthogonal coordinates."""
        return float(_dual_norms(self.check_coords(xstar), self.q))

    def __str__(self):
        if self.p == math.inf:
            tag = "linf"
        elif self.p == 1.0:
            tag = "l1"
        elif self.p == 2.0:
            tag = "l2"
        else:
            # the shortest digits that parse back to p: :g keeps six, so
            # lp:1.0000001 would read back as l1
            tag = f"lp:{np.format_float_positional(self.p, trim='-')}"
        return f"{tag}:{self.dim}"


_SPACE_RE = re.compile(
    r"^(l1|l2|linf):(\d+)$|^lp:(\d+(?:\.\d*)?|inf):(\d+)$"
)


def parse_space(text: str) -> Space:
    """Parse the CLI space syntax: l1:4, l2:6, linf:3, lp:2.5:4."""
    m = _SPACE_RE.match(text.strip())
    if not m:
        raise SpaceSyntaxError(f"cannot parse space description {text!r}")
    if m.group(1):
        p = {"l1": 1.0, "l2": 2.0, "linf": math.inf}[m.group(1)]
        return Space.lp(p, int(m.group(2)))
    p = math.inf if m.group(3) == "inf" else float(m.group(3))
    if p < 1.0:
        raise SpaceSyntaxError(f"p must be >= 1, got {p}")
    return Space.lp(p, int(m.group(4)))
