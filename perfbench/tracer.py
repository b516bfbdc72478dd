"""Per-layer tracing by wrapping the public functions of the fbl modules.

Nothing in the package changes: a Tracer replaces each traced function in
every fbl module (and class) that holds a reference to it, records calls,
work counts, total and self time, and puts the originals back on exit.
Self time is a span's duration minus the time covered by traced spans
it called.  Wrappers keep their per-call work small, because the lifting
suite makes tens of thousands of kernel calls.
"""

from __future__ import annotations

import sys
import time


def _rows(args, result):
    return args[0].shape[0]


def _eval_rows(args, result):
    return args[2].shape[0]


def _constraint_work(args, result):
    # (tuples, flops): Z = XB . S^T is 2*B*k*d*npat multiply-adds over the
    # batch; the pattern count is S.shape[0] = 2^(k-1)
    XB, S = args[0], args[1]
    B, k, d = XB.shape
    return B, 2 * B * k * d * S.shape[0]


def _evaluations(args, result):
    return result.evaluations


# (metric prefix, module, attribute, work counter, reported fields).  A
# counter returns one count, or a (count, flops) pair; the field that names
# the count (rows, tuples or evaluations) says what it counts.  `s` is total
# time, `self_s` total minus traced callees.
LAYERS = [
    ("cli.run", "fbl.cli", "run", None, ("self_s",)),
    ("homfun.parse", "fbl.homfun", "parse", None, ("calls", "s")),
    ("homfun.eval_batch", "fbl.homfun", "eval_batch", _eval_rows,
     ("calls", "rows", "self_s")),
    ("kernels.hom_batch", "fbl.kernels", "hom_batch", _rows, ("calls", "rows", "s")),
    ("kernels.pattern_norms", "fbl.kernels", "pattern_norms", None, ("calls", "s")),
    ("kernels.constraint_batch", "fbl.kernels", "constraint_batch", _constraint_work,
     ("calls", "tuples", "s", "gflops")),
    ("fblnorm.fbl_lower_bound", "fbl.fblnorm", "fbl_lower_bound", _evaluations,
     ("calls", "evaluations", "self_s")),
    ("fblnorm.tuple_constraint", "fbl.fblnorm", "tuple_constraint", None,
     ("calls", "self_s")),
    ("fblnorm.upper_bound_finite_coords", "fbl.fblnorm", "upper_bound_finite_coords",
     None, ("calls", "s")),
    ("spaces.Space.dual_norm", "fbl.spaces", "Space.dual_norm", None, ("calls", "s")),
    ("lifting.T_apply", "fbl.lifting", "T_apply", None, ("calls", "s")),
    ("lifting.beta_apply", "fbl.lifting", "beta_apply", None, ("calls", "s")),
    ("verify.check_biorthogonal", "fbl.verify", "check_biorthogonal", None, ("self_s",)),
    ("verify.check_disjoint", "fbl.verify", "check_disjoint", None, ("self_s",)),
    ("verify.check_beta_section", "fbl.verify", "check_beta_section", None, ("self_s",)),
    ("verify.check_normspan", "fbl.verify", "check_normspan", None, ("self_s",)),
    ("verify.check_freenorm", "fbl.verify", "check_freenorm", None, ("self_s",)),
    ("verify.check_lemma44", "fbl.verify", "check_lemma44", None, ("self_s",)),
]


class Span:
    """Accumulated statistics of one traced function."""

    __slots__ = ("calls", "total_s", "self_s", "work", "flops")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = 0
        self.flops = 0


class Tracer:
    """Context manager that wraps every layer in LAYERS while active."""

    def __init__(self):
        self.spans = {name: Span() for name, *_ in LAYERS}
        self._undo = []

    def __enter__(self):
        # one child-time accumulator per open span; the bottom entry
        # collects the time of top-level spans and is never read
        stack = [0.0]
        holders = _holders()
        for name, modname, attr, work, _ in LAYERS:
            owner = sys.modules[modname]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = _wrap(original, self.spans[name], stack, work)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()
        return False


def _holders():
    """Every fbl module, and every class defined in one."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if modname != "fbl" and not modname.startswith("fbl."):
            continue
        out.append(mod)
        out.extend(v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__ == modname)
    return out


def _wrap(fn, span, stack, work):
    clock = time.perf_counter
    push, pop = stack.append, stack.pop

    def traced(*args, **kwargs):
        push(0.0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            child = pop()
            stack[-1] += dt
            span.calls += 1
            span.total_s += dt
            span.self_s += dt - child
        if work is not None:
            n = work(args, result)
            if isinstance(n, tuple):
                span.work += n[0]
                span.flops += n[1]
            else:
                span.work += n
        return result

    return traced
