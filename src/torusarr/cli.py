"""Command-line interface.

Subcommands: count, intersect, feasible, construct, verify, bounds.
Results go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 parse or validation error, 2 unachievable count requested, 3 resource
cap exceeded, 4 violated bound (counter bug). Every subcommand accepts
``--json`` for a stable machine-readable schema in which all rationals are
exact "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .arrangement import Arrangement, format_tarr, load_tarr, save_tarr
from .errors import (
    NotFeasible,
    ResourceCapError,
    TheoremViolation,
    TorusArrError,
)
from .intersection import components_pair
from .regions import count_regions, region_witnesses
from .theory import check_bounds, feasible_set, construct_for

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FEASIBLE = 2
EXIT_RESOURCE_CAP = 3
EXIT_THEOREM_VIOLATION = 4

ENV_MAX_SHEETS = "TORUSARR_MAX_SHEETS"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse's exit(2) onto exit 1
        raise _UsageError(f"{self.prog}: error: {message}")


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _max_sheets(args) -> int | None:
    if getattr(args, "max_sheets", None) is not None:
        return args.max_sheets
    env = os.environ.get(ENV_MAX_SHEETS)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"{ENV_MAX_SHEETS} must be an integer, got {env!r}") from None
    return None


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, ensure_ascii=False))


def _load(path: str) -> Arrangement:
    try:
        return load_tarr(path)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None


def _cmd_count(args) -> int:
    arr = _load(args.file)
    cap = _max_sheets(args)
    if args.witnesses:
        witnesses = region_witnesses(arr, max_sheets=cap)
        f = len(witnesses)
    else:
        witnesses = None
        f = count_regions(arr, max_sheets=cap)
    if args.json:
        payload = {"command": "count", "d": arr.dim, "n": arr.n, "f": f}
        if witnesses is not None:
            payload["witnesses"] = [[_frac_str(x) for x in w] for w in witnesses]
        _emit_json(payload)
    else:
        print(f"f = {f}")
        if witnesses is not None:
            for w in witnesses:
                print("witness: " + " ".join(_frac_str(x) for x in w))
    return EXIT_OK


def _cmd_intersect(args) -> int:
    arr = _load(args.file)
    i, j = args.pair
    if not (1 <= i <= arr.n and 1 <= j <= arr.n):
        raise _UsageError(f"--pair indices must be in 1..{arr.n}")
    if i == j:
        raise _UsageError("--pair needs two different subtorus indices")
    count = components_pair(arr.tori[i - 1].normal, arr.tori[j - 1].normal)
    if args.json:
        _emit_json(
            {"command": "intersect", "d": arr.dim, "n": arr.n, "pair": [i, j], "f": count}
        )
    else:
        print(f"components = {count}")
    return EXIT_OK


def _cmd_feasible(args) -> int:
    fset = feasible_set(args.d, args.n)
    if args.test is None:
        if args.json:
            _emit_json(
                {"command": "feasible", "d": args.d, "n": args.n, "set": fset.to_json()}
            )
        elif not args.quiet:
            print(f"F(T^{args.d},{args.n}) = {fset}")
        return EXIT_OK
    member = fset.contains(args.test)
    if args.json:
        _emit_json(
            {
                "command": "feasible",
                "d": args.d,
                "n": args.n,
                "set": fset.to_json(),
                "verdicts": {"l": args.test, "member": member},
            }
        )
    elif not args.quiet:
        rel = "in" if member else "not in"
        print(f"{args.test} {rel} F(T^{args.d},{args.n})")
    if args.quiet:
        return EXIT_OK if member else EXIT_NOT_FEASIBLE
    return EXIT_OK


def _cmd_construct(args) -> int:
    arr = construct_for(args.d, args.n, args.f)
    header = f"constructed: d={args.d} n={args.n} f={args.f} (verified)"
    if args.output:
        save_tarr(arr, args.output, header=header)
        if args.json:
            _emit_json(
                {
                    "command": "construct",
                    "d": args.d,
                    "n": args.n,
                    "f": args.f,
                    "path": args.output,
                }
            )
        else:
            print(f"wrote {args.output}", file=sys.stderr)
    else:
        text = format_tarr(arr, header=header)
        if args.json:
            _emit_json(
                {"command": "construct", "d": args.d, "n": args.n, "f": args.f, "tarr": text}
            )
        else:
            sys.stdout.write(text)
    return EXIT_OK


def _report_lines(report) -> list[str]:
    lines = [
        f"n = {report.n}, d = {report.d}, f = {report.f}, m = {report.m}",
        f"parallel-class bound m(n-m-d+2) = {report.parallel_bound}: "
        + ("satisfied" if report.parallel_ok else "VIOLATED"),
    ]
    if report.dichotomy_applicable:
        lines.append(
            "dichotomy (f >= 2n-2d, or f <= n with m >= n-d+1): "
            + ("satisfied" if report.dichotomy_ok else "VIOLATED")
        )
    else:
        lines.append("dichotomy: not applicable (needs n > d >= 2)")
    if report.fset is not None:
        lines.append(
            f"membership: {report.f} {'in' if report.membership_ok else 'NOT IN'} "
            f"F(T^{report.d},{report.n}) = {report.fset}"
        )
    else:
        lines.append(
            "membership: empty arrangement, complement is the whole torus (f = 1): "
            + ("satisfied" if report.membership_ok else "VIOLATED")
        )
    return lines


def _cmd_verify(args) -> int:
    arr = _load(args.file)
    f = count_regions(arr, max_sheets=_max_sheets(args))
    report = check_bounds(arr, f)
    if args.json:
        _emit_json(
            {
                "command": "verify",
                "d": arr.dim,
                "n": arr.n,
                "f": f,
                "m": report.m,
                "verdicts": report.to_json(),
            }
        )
    else:
        for line in _report_lines(report):
            print(line)
        print("verdict: OK")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    arr = _load(args.file)
    f = args.f if args.f is not None else count_regions(arr, max_sheets=_max_sheets(args))
    report = check_bounds(arr, f)
    if args.json:
        _emit_json(
            {
                "command": "bounds",
                "d": arr.dim,
                "n": arr.n,
                "f": f,
                "m": report.m,
                "verdicts": report.to_json(),
            }
        )
    else:
        for line in _report_lines(report):
            print(line)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="torusarr",
        description="Exact region counting and intersection arithmetic for "
        "arrangements of codimension-one subtori in the flat d-torus.",
    )
    parser.add_argument("--version", action="version", version=f"torusarr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count complement regions of a .tarr arrangement")
    p.add_argument("file")
    p.add_argument("--witnesses", action="store_true", help="print one rational point per region")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-sheets", type=int, dest="max_sheets")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("intersect", help="component count of a pairwise intersection")
    p.add_argument("file")
    p.add_argument("--pair", nargs=2, type=int, required=True, metavar=("I", "J"),
                   help="1-based subtorus indices in file order")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("feasible", help="achievable region counts for (d, n)")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--test", type=int, default=None, metavar="L",
                   help="test membership of L instead of printing the set")
    p.add_argument("--quiet", action="store_true",
                   help="with --test: no output, exit 0 if member else 2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("construct", help="build an arrangement achieving a given count")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("f", type=int)
    p.add_argument("-o", "--output", default=None, metavar="FILE",
                   help="write .tarr here instead of stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="count regions, then check all proven bounds")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-sheets", type=int, dest="max_sheets")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="bound report for an arrangement")
    p.add_argument("file")
    p.add_argument("--f", type=int, default=None,
                   help="use this region count instead of re-deriving it")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-sheets", type=int, dest="max_sheets")
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR
    except NotFeasible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FEASIBLE
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except TheoremViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.report is not None:
            for line in _report_lines(exc.report):
                print(line, file=sys.stderr)
        return EXIT_THEOREM_VIOLATION
    except TorusArrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
