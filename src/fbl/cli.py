"""Command-line front end: norm estimation, lifting verification, inequality suites.

Reports are JSON on standard output (or --out); a human summary goes to
standard error.  Exit codes: 0 pass, 1 check failure, 2 bad expression,
space or command line (InputError), 3 configuration out of range
(ConfigError); any other exception is a bug.  All randomness derives from
--seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

# lazy modules (see fbl/__init__.py): each command touches only the ones
# it runs, so it executes no other module's code
from . import fblnorm, homfun, lemma44, lifting, verify
from .spaces import ConfigError, InputError, parse_space

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_CONFIG_ERROR = 3

__all__ = ["main", "run"]


def _parse_mseq(text: str) -> homfun.LiftParams:
    if text == "pow2":
        return homfun.LiftParams()
    if text == "harmonic":
        raise ConfigError("mseq 'harmonic' rejected: sum of 1/M_n diverges")
    if text.startswith("custom:"):
        body = text[len("custom:"):].strip("[]")
        try:
            values = tuple(float(v) for v in body.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(f"bad custom M sequence {text!r}") from exc
        return homfun.LiftParams(m_values=values)
    raise ConfigError(f"unknown mseq {text!r} (expected pow2 or custom:LIST)")


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out_path!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _search_config(args) -> fblnorm.SearchConfig:
    return fblnorm.SearchConfig(k=args.k, restarts=args.restarts, seed=args.seed)


def cmd_norm(args) -> int:
    params = _parse_mseq(args.mseq)
    space = parse_space(args.space)
    expr = homfun.parse(args.expr, params)
    params.arrays(space.dim)  # the M sequence must cover the space
    est = fblnorm.fbl_lower_bound(expr, space, _search_config(args))
    _emit(est.to_dict(), args.out)
    print(f"norm lower bound {est.lower_bound:.9g} "
          f"(objective {est.objective:.9g} / constraint {est.constraint:.9g})",
          file=sys.stderr)
    return EXIT_OK


def cmd_lift_verify(args) -> int:
    params = _parse_mseq(args.mseq)
    space = parse_space(args.space)
    system = lifting.LiftingSystem(space, params)
    reports = verify.lift_verify(system, _search_config(args), args.instances,
                                 args.coeff_vectors)
    payload = {"space": str(space), "checks": [r.to_dict() for r in reports],
               "passed": all(r.passed for r in reports), "seed": args.seed}
    _emit(payload, args.out)
    for r in reports:
        print(f"{r.check}: {'pass' if r.passed else 'FAIL'} "
              f"({r.instances} instances, worst slack {r.worst_slack})", file=sys.stderr)
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def cmd_lemma44(args) -> int:
    space = parse_space(args.space) if args.space else None
    report = lemma44.check_lemma44(space, instances=args.instances,
                                   max_l=args.l, seed=args.seed)
    _emit(report.to_dict(), args.out)
    print(f"lemma44: {'pass' if report.passed else 'FAIL'} "
          f"({report.instances} instances, worst slack {report.worst_slack})",
          file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # a malformed command line is an input error: exit 2 with a JSON error
        self.print_usage(sys.stderr)
        raise InputError(message)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was
    ap = _ArgumentParser(prog="fbl", description="free-Banach-lattice numerical workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, space_required=True):
        p.add_argument("--space", required=space_required, default=None,
                       help="space syntax: l1:4, l2:6, linf:3 or lp:2.5:4")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the JSON report here")

    def search(p, k, restarts):
        p.add_argument("--mseq", default="pow2", help="pow2 | custom:LIST")
        p.add_argument("--k", type=int, default=k, help="tuple size")
        p.add_argument("--restarts", type=int, default=restarts)

    p = sub.add_parser("norm", help="lower-bound the norm of an expression")
    common(p)
    search(p, k=2, restarts=100)
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("lift-verify", help="run the lifting verification suite")
    common(p)
    search(p, k=3, restarts=8)
    p.add_argument("--instances", type=int, default=10_000,
                   help="samples for the disjointness check")
    p.add_argument("--coeff-vectors", type=int, default=20, dest="coeff_vectors")
    p.set_defaults(func=cmd_lift_verify)

    p = sub.add_parser("lemma44", help="sign-averaging inequality property suite")
    common(p, space_required=False)
    p.add_argument("--instances", type=int, default=10_000)
    p.add_argument("--l", type=int, default=6, help="max tuple size")
    p.set_defaults(func=cmd_lemma44)

    return ap


def run(argv=None) -> int:
    out = None
    try:
        args = _build_parser().parse_args(argv)
        out = args.out
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except InputError as exc:
        return _fail(exc, out, EXIT_INPUT_ERROR, "input error")
    except ConfigError as exc:
        return _fail(exc, out, EXIT_CONFIG_ERROR, "config error")


def _fail(exc: ValueError, out_path: str | None, code: int, kind: str) -> int:
    error = {"message": str(exc)}
    if hasattr(exc, "position"):
        error["position"] = exc.position
    try:
        _emit({"error": error}, out_path)
    except ConfigError:  # an --out path that cannot take the error
        _emit({"error": error}, None)
    print(f"{kind}: {exc}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
