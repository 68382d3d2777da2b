"""Command-line interface.

Subcommands:

* ``vanhove --m M [--json]`` — print the polynomial coefficients of the
  order-M operator.
* ``matrix NAME --k K [--u P/Q] [--json]`` — print a matrix family
  member (exact entries).
* ``moment KIND A B N [--u P/Q] --digits D`` — evaluate one moment
  integral.
* ``verify {exact,numeric,all} [--max-k K] [--digits D]
  [--report FILE] [--extended]`` — run verification suites;
  ``--extended`` adds heavier numeric checks, so ``verify exact``
  rejects it.
* ``cache {stats,verify,path}`` — inspect the moment cache.

Exit codes: 0 when no check failed, 1 when a verification check failed
or errored or when a computation gave up with an ArithmeticError (a
quadrature that did not converge, for one), 2 on usage errors (an
unwritable ``--report`` path among them).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from . import MOMENT_KINDS, __version__

# Each layer is imported by the subcommand that runs it: ``cache`` and
# ``moment`` start without the exact layers and the harness, and
# ``vanhove``, ``matrix`` and ``verify exact`` without the numeric layer.
if TYPE_CHECKING:
    from .harness import Report

# Function-style aliases accepted in addition to the registry names.
_MATRIX_ALIASES = {
    "betti_B": "BettiB",
    "betti_b": "Bettib",
    "betti_Bring": "BettiBring",
    "betti_bring": "Bettibring",
    "derham_D": "DerhamD",
    "derham_d": "Derhamd",
    "derham_Dring": "DerhamDring",
    "derham_dring": "Derhamdring",
    "frakS": "FrakS",
    "frakSring": "FrakSring",
    "matV": "V",
    "matUpsilon": "Upsilon",
    "matSigma": "Sigma",
    "matsigma": "sigma",
    "matSigmaInvB": "SigmaInvB",
    "matsigmaInvB": "sigmaInvB",
    "beta": "Beta",
    "beta_matrix": "Beta",
}


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational number {text!r}") from exc


def _out(text: str) -> None:
    """Print text to stdout, flushed.  A reader that closes the pipe early
    ends the output, not the command: stdout then points at os.devnull, so
    the command runs on (``verify`` still writes ``--report`` and returns
    its verdict) and the flush at exit stays quiet."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwv",
        description="Exact and arbitrary-precision verification of "
                    "quadratic relations among Bessel moments.",
    )
    parser.add_argument("--version", action="version",
                        version=f"bwv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vanhove", help="print operator coefficients")
    p.add_argument("--m", type=int, required=True, help="operator order")
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("matrix", help="print a matrix family member")
    p.add_argument("name", help="family name (e.g. BettiB or betti_B)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", type=str, default=None,
                   help="evaluation point P/Q for Q(u) families")
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("moment", help="evaluate one moment integral")
    p.add_argument("kind", choices=sorted(MOMENT_KINDS))
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--u", type=str, default=None)
    p.add_argument("--digits", type=int, default=50)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("mode", choices=("exact", "numeric", "all"))
    p.add_argument("--max-k", type=int, default=None, dest="max_k")
    p.add_argument("--digits", type=int, default=50)
    p.add_argument("--report", type=str, default=None,
                   help="write the JSON report to this file")
    p.add_argument("--extended", action="store_true",
                   help="add the heavier numeric checks (numeric, all)")

    p = sub.add_parser("cache", help="inspect the moment cache")
    p.add_argument("action", choices=("stats", "verify", "path"))

    return parser


def _cmd_vanhove(args) -> int:
    from .vanhove import vanhove_operator

    op = vanhove_operator(args.m)
    coeffs = [op.ell(j) for j in range(args.m + 1)]
    if args.as_json:
        _out(json.dumps({
            "m": args.m,
            "coefficients": [str(c) for c in coeffs],
        }, indent=2))
    else:
        for j, c in enumerate(coeffs):
            _out(f"l[{args.m},{j}](u) = {c}")
    return 0


def _cmd_matrix(args) -> int:
    from .brmatrices import MATRIX_FAMILIES, matrix_family, matrix_to_json

    name = _MATRIX_ALIASES.get(args.name, args.name)
    if name not in MATRIX_FAMILIES:
        known = sorted(set(MATRIX_FAMILIES) | set(_MATRIX_ALIASES))
        print(f"bwv: unknown matrix family {args.name!r}; expected one of "
              f"{', '.join(known)}", file=sys.stderr)
        return 2
    u = _parse_fraction(args.u) if args.u is not None else None
    M = matrix_family(name, args.k, u)
    if args.as_json:
        _out(json.dumps(matrix_to_json(name, args.k, M), indent=2))
    else:
        _out(str(M))
    return 0


def _cmd_moment(args) -> int:
    from mpmath import mp

    from .besselnum import moment_value

    u = _parse_fraction(args.u) if args.u is not None else None
    v = moment_value(args.kind, args.a, args.b, args.n, u, args.digits)
    with mp.workdps(args.digits + 5):
        _out(mp.nstr(v, args.digits, strip_zeros=False))
    return 0


def _print_report(report: Report) -> None:
    width = max((len(c.check_id) for c in report.checks), default=0)
    for c in report.checks:
        line = f"{c.check_id:<{width}}  {c.status:<7}"
        if c.residual is not None:
            line += f"  residual={c.residual}"
        if c.error is not None:
            line += f"  error={c.error}"
        line += f"  ({c.runtime_ms} ms)"
        _out(line)
    s = report.summary
    _out(f"summary: {s['pass']} pass, {s['fail']} fail, "
         f"{s['skipped']} skipped, {s['error']} error")


def _cmd_verify(args) -> int:
    from . import harness

    if args.mode == "exact":
        if args.extended:
            raise ValueError("--extended selects numeric checks; "
                             "'verify exact' does not take it")
        report = harness.run_exact_suite(
            args.max_k if args.max_k is not None else 5)
    elif args.mode == "numeric":
        report = harness.run_numeric_suite(
            args.max_k if args.max_k is not None else 3,
            digits=args.digits, extended=args.extended)
    else:
        report = harness.run_all(
            exact_max_k=args.max_k if args.max_k is not None else 5,
            numeric_max_k=args.max_k if args.max_k is not None else 3,
            digits=args.digits, extended=args.extended)
    _print_report(report)
    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.write(harness.report_to_json(report))
        except OSError as exc:
            print(f"bwv: cannot write report {args.report}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0 if report.ok else 1


def _cmd_cache(args) -> int:
    from .besselnum import default_cache

    cache = default_cache()
    if args.action == "path":
        _out(str(cache.path))
        return 0
    if args.action == "stats":
        _out(json.dumps(cache.stats(), indent=2))
        return 0
    result = cache.verify()
    _out(json.dumps(result, indent=2))
    return 0 if result["ok"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version.
        return int(exc.code or 0)
    try:
        if args.command == "vanhove":
            return _cmd_vanhove(args)
        if args.command == "matrix":
            return _cmd_matrix(args)
        if args.command == "moment":
            return _cmd_moment(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_cache(args)
    except ValueError as exc:
        print(f"bwv: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # the base of besselnum.QuadratureError, so no layer is imported
        # to catch it
        print(f"bwv: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
