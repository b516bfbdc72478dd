"""The package namespace: lazy submodules, public names and the tracer's layers."""

import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest

import fbl
from test_cli import EVERY_COMMAND

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(fbl.__file__)))


def _python(*argv, check=True):
    """Run a fresh interpreter that imports this fbl with argv."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=check)


def _fresh(script, *argv):
    """Run script in a fresh interpreter that imports this fbl; its stdout as JSON."""
    return json.loads(_python("-c", script, *argv).stdout)


def test_public_names_resolve_lazily():
    # the names fbl/__init__.py bound when it imported its modules eagerly
    from fbl import (
        Abs, Add, BuiltinF, BuiltinH, ConfigError, Delta, DimensionMismatch,
        ExprSyntaxError, HomExpr, InputError, Join, LiftingSystem, LiftParams, Meet,
        NormEstimate, Pos, Scale, SearchConfig, Space, T_apply, UpperBound, __version__,
        beta_apply, dim1_norm, eval_batch, eval_expr, fbl_lower_bound, fbl_lower_bounds,
        parse, parse_space, to_text, tuple_constraint, upper_bound_finite_coords,
    )
    imported = dict(locals())
    assert len(imported) == 33 and __version__ == "0.1.0"
    assert sorted(fbl.__all__) == sorted(set(imported) - {"__version__"})
    for name, value in imported.items():
        assert name in dir(fbl)
        assert getattr(fbl, name) is value
    assert parse is fbl.homfun.parse and ConfigError is fbl.spaces.ConfigError
    assert not hasattr(fbl, "no_such_name")


# every fbl module but the package and its __main__
MODULES = sorted(m.name for m in pkgutil.iter_modules(fbl.__path__) if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    # a name deleted from a module but left in its __all__ would break
    # `from fbl.<module> import *`
    module = importlib.import_module(f"fbl.{name}")
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


def test_errors_survive_pickle():
    # lift-verify's forked child sends its exception to the parent pickled
    errors = {fbl.spaces.InputError, fbl.spaces.ConfigError}
    for name in MODULES:
        for value in vars(importlib.import_module(f"fbl.{name}")).values():
            if (isinstance(value, type) and issubclass(value, tuple(errors))
                    and value.__module__.startswith("fbl.")):
                errors.add(value)
    assert len(errors) >= 8
    for cls in errors:
        exc = cls("bad", 3) if cls is fbl.homfun.ExprSyntaxError else cls("bad")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls and str(back) == str(exc)
        assert vars(back) == vars(exc)
    assert pickle.loads(pickle.dumps(fbl.ExprSyntaxError("bad", 3))).position == 3


def test_python_m_fbl_runs_the_command_line():
    # runpy warns, and runs cli.py a second time, when the module it runs
    # as __main__ is in sys.modules already; import fbl registers fbl.cli,
    # but not fbl.__main__
    out = _python("-W", "error::RuntimeWarning", "-m", "fbl", "lemma44", "--instances", "1",
                  check=False)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["instances"] == 1
    assert "Warning" not in out.stderr


# the fbl modules whose code each command runs; the others stay lazy
# modules that LazyLoader registered and never loaded
EXECUTED = {
    "norm": ["cli", "fblnorm", "homfun", "kernels", "spaces"],
    "lift-verify": ["cli", "fblnorm", "homfun", "kernels", "lemma44", "lifting", "spaces",
                    "verify"],
    "lemma44": ["cli", "kernels", "lemma44", "spaces"],
}

RUN_COMMAND = """
import contextlib, io, json, sys, types
import fbl.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = fbl.cli.run(sys.argv[1:])
print(json.dumps([code, sorted(name[len("fbl."):] for name, m in sys.modules.items()
                               if name.startswith("fbl.") and type(m) is types.ModuleType)]))
"""


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_commands_execute_only_the_modules_they_use(argv):
    # a fresh interpreter: this one has loaded every module
    assert _fresh(RUN_COMMAND, *argv) == [0, EXECUTED[argv[0]]]


RESOLVE_LAYERS = """
import json, sys
sys.path.insert(0, "perfbench")
import tracer
import fbl
missing = []
for name, module, attr, *_ in tracer.LAYERS:
    try:
        owner = sys.modules[module]
        for part in attr.split("."):
            owner = getattr(owner, part)
    except (KeyError, AttributeError):
        missing.append(name)
print(json.dumps(missing))
"""


def test_tracer_layers_resolve_after_a_bare_import():
    # perfbench/tracer.py looks each layer up in sys.modules: every one
    # must be there, loaded or lazy, once fbl itself is imported
    assert _fresh(RESOLVE_LAYERS) == []
