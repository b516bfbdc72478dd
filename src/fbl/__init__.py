"""Numerical workbench for free Banach lattices over finite-dimensional spaces."""

from .spaces import Space, parse_space, DimensionMismatch
from .spaces import InputError, ConfigError
from .homfun import (
    LiftParams,
    HomExpr,
    Delta,
    Scale,
    Add,
    Abs,
    Pos,
    Join,
    Meet,
    BuiltinF,
    BuiltinH,
    parse,
    to_text,
    eval_expr,
    eval_batch,
    ExprSyntaxError,
)
from .fblnorm import (
    SearchConfig,
    NormEstimate,
    UpperBound,
    tuple_constraint,
    fbl_lower_bound,
    fbl_lower_bounds,
    dim1_norm,
    upper_bound_finite_coords,
)
from .lifting import LiftingSystem, beta_apply, T_apply

__version__ = "0.1.0"
