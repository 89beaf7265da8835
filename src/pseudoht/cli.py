"""Command-line front end.

Subcommands: build, table, extend, check, sbg, verify-paper.  ASCII
conventions for decorated symbols: a trailing "~" stands for a tilde (Z1~);
overbars are dropped entirely.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from typing import NoReturn, Optional, Sequence

from . import acceptance
from .algebra import algebra_json
from .catalog import base_algebra, render_table, scope
from .extension import ExtensionStep, extension_chain, standard_algebra
from .jsonout import dumps
from .obstruction import check_pair, sbg_decision
from .sums import build_sum, sum_sbg

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3


def _require_writable(out: str) -> None:
    """Raise the OSError that open(out, "w") would raise for a missing
    directory, a directory or a read-only target, creating and truncating
    nothing."""
    path = os.path.abspath(out)
    parent = os.path.dirname(path)
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), out)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_build(args) -> int:
    if args.sum is not None and args.extend:
        print("--sum cannot be combined with --extend", file=sys.stderr)
        return EXIT_ERROR
    # a fresh cache, since build derives nothing a later request reads:
    # what it made goes with the scope once the JSON is written
    with scope():
        if args.sum is not None:
            algebra = build_sum(base_algebra(args.r, args.s), *args.sum)
        elif args.extend:
            steps = [ExtensionStep.parse(s) for s in args.extend]
            algebra = extension_chain((args.r, args.s), steps)
        else:
            algebra = standard_algebra(args.r, args.s)
        _emit(algebra_json(algebra) + "\n", args.out)
    return EXIT_OK


def _cmd_table(args) -> int:
    algebra = standard_algebra(args.r, args.s)
    _emit(render_table(algebra, fmt=args.format), args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    cert = check_pair(args.r1, args.s1, args.r2, args.s2, anti_only=args.anti)
    _emit(dumps(cert.json_dict()) + "\n", args.out)
    if cert.kind == "ISO":
        return EXIT_OK
    if cert.kind.startswith("NOT_ISO"):
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


def _cmd_sbg(args) -> int:
    if args.sum is not None:
        mu, nu = args.sum
        cert = sum_sbg(build_sum(base_algebra(args.r, args.s), mu, nu))
    else:
        cert = sbg_decision(standard_algebra(args.r, args.s))
    _emit(dumps(cert.json_dict()) + "\n", args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = acceptance.run_all()
    failed = 0
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"criterion {rep.number} {rep.name}: {status} ({rep.elapsed:.2f}s)")
        if not rep.passed:
            failed += 1
            for line in rep.failures[:8]:
                print(f"  - {line}")
    summary = {"criteria": [rep.json_dict() for rep in reports],
               "passed": len(reports) - failed, "failed": failed}
    if args.out:
        _emit(dumps(summary) + "\n", args.out)
    else:
        print(json.dumps(summary if args.verbose else
                         {"passed": summary["passed"],
                          "failed": summary["failed"]}))
    return EXIT_OK if failed == 0 else EXIT_NEGATIVE


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_ERROR: argparse's
    own code, 2, is check's EXIT_INCONCLUSIVE.  Subparsers inherit it."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_signature_args(p) -> None:
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pseudoht",
        description="Exact-arithmetic toolkit for pseudo H-type Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct an algebra and print JSON")
    _add_signature_args(p)
    p.add_argument("--extend", nargs="+", metavar="P,Q",
                   help="extension steps applied to the base (8,0 0,8 4,4)")
    p.add_argument("--sum", nargs=2, type=int, metavar=("MU", "NU"),
                   help="direct sum with MU type-1 and NU type-2 blocks")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("table", help="emit the commutator table")
    _add_signature_args(p)
    p.add_argument("--format", choices=("md", "csv"), default="md")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("extend", help="alias of build --extend")
    _add_signature_args(p)
    p.add_argument("steps", nargs="+", metavar="P,Q")
    p.add_argument("--out")
    p.set_defaults(func=lambda a: _cmd_build(argparse.Namespace(
        r=a.r, s=a.s, extend=a.steps, sum=None, out=a.out)))

    p = sub.add_parser("check", help="isomorphism certificate for a pair")
    p.add_argument("r1", type=int)
    p.add_argument("s1", type=int)
    p.add_argument("r2", type=int)
    p.add_argument("s2", type=int)
    p.add_argument("--anti", action="store_true",
                   help="restrict to anti-isometric center action")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: the answer depends on the "
                        "question alone")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sbg", help="strongly-bracket-generating certificate")
    _add_signature_args(p)
    p.add_argument("--sum", nargs=2, type=int, metavar=("MU", "NU"))
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: both answers are proofs")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sbg)

    p = sub.add_parser("verify-paper",
                       help="run the full reproduction and property suite")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: every criterion is exact")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; a malformed command line, a request the package
    refuses with a ValueError (bad signature or step, module over budget)
    or an --out that cannot be written (OSError) exits EXIT_ERROR.  The
    --out path is checked before any work, so an unwritable one costs
    nothing."""
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            _require_writable(args.out)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
