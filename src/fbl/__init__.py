"""Numerical workbench for free Banach lattices over finite-dimensional spaces.

Importing the package runs none of its modules.  Each submodule sits in
sys.modules as a lazy module (importlib.util.LazyLoader) whose code runs
on its first attribute access, and the public names below resolve through
__getattr__, so a command loads only the modules it uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name):
    # the lazy-import recipe of the importlib documentation
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


cli = _lazy("cli")
fblnorm = _lazy("fblnorm")
homfun = _lazy("homfun")
kernels = _lazy("kernels")
lemma44 = _lazy("lemma44")
lifting = _lazy("lifting")
spaces = _lazy("spaces")
verify = _lazy("verify")

# each public name with the module that defines it
_PUBLIC = {
    "spaces": ("Space", "parse_space", "DimensionMismatch", "InputError", "ConfigError"),
    "homfun": ("LiftParams", "HomExpr", "Delta", "Scale", "Add", "Abs", "Pos", "Join",
               "Meet", "BuiltinF", "BuiltinH", "parse", "to_text", "eval_expr",
               "eval_batch", "ExprSyntaxError"),
    "fblnorm": ("SearchConfig", "NormEstimate", "UpperBound", "tuple_constraint",
                "fbl_lower_bound", "fbl_lower_bounds", "dim1_norm",
                "upper_bound_finite_coords"),
    "lifting": ("LiftingSystem", "beta_apply", "T_apply"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
