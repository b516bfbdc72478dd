"""The isometric lattice lifting: barycenter map and the lifting operator.

For a space with normalized 1-unconditional basis (e_n), the barycenter map
sends f to the vector of its values at the biorthogonal functionals, and the
lifting operator T sends x to the disjoint combination sum_n x_n f(n), where
f(n) are the pairwise disjoint built-in generators.  Then beta(T(x)) = x and
T is a lattice homomorphism of norm one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .homfun import Add, BuiltinF, HomExpr, LiftParams, Scale, eval_batch, finite
from .spaces import Space

__all__ = ["LiftingSystem", "beta_apply", "T_apply"]


@dataclass(frozen=True)
class LiftingSystem:
    space: Space
    params: LiftParams = field(default_factory=LiftParams)

    @property
    def generators(self) -> tuple[BuiltinF, ...]:
        return tuple(BuiltinF(n, self.params) for n in range(1, self.space.dim + 1))


def beta_apply(f: HomExpr, space: Space) -> np.ndarray:
    """Barycenter coordinates: the value of f at each biorthogonal functional."""
    return finite(eval_batch(f, space, np.eye(space.dim)))


def T_apply(system: LiftingSystem, x) -> HomExpr:
    """Lift a vector to the disjoint combination of the built-in generators."""
    x = system.space.check_coords(x)
    return Add(Scale(float(c), g) for c, g in zip(x, system.generators))
