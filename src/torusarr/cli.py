"""Command-line interface.

Subcommands: count, intersect, feasible, construct, verify, bounds.
Each ``_cmd_*`` function returns ``(payload, lines, exit_code)``; ``main``
prints the payload as one JSON object under ``--json`` and the lines
otherwise, so results have one path to stdout. The only thing a ``_cmd_*``
prints itself is ``construct -o``'s ``wrote FILE`` note, on stderr and in
text mode only. Every subcommand accepts ``--json``, a stable
machine-readable schema in which all rationals are exact "p/q" strings.
Diagnostics go to stderr: that ``wrote FILE`` note, and for every failure
one ``error: <message>`` line, which a violated bound follows with its report.
Exit codes: 0 success, 1 parse or validation error, 2 unachievable count
requested, 3 resource cap exceeded, 4 violated bound (counter bug).
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
    InvalidParams,
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
_EXIT_CODES = {  # every other TorusArrError exits EXIT_ERROR
    NotFeasible: EXIT_NOT_FEASIBLE,
    ResourceCapError: EXIT_RESOURCE_CAP,
    TheoremViolation: EXIT_THEOREM_VIOLATION,
}

ENV_MAX_SHEETS = "TORUSARR_MAX_SHEETS"

_Output = tuple[dict, list[str], int]  # (JSON payload, text lines, exit code)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse's exit(2) onto exit 1
        raise InvalidParams(f"{self.prog}: {message}")


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _max_sheets(args) -> int | None:
    if args.max_sheets is not None:
        return args.max_sheets
    env = os.environ.get(ENV_MAX_SHEETS)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidParams(f"{ENV_MAX_SHEETS} must be an integer, got {env!r}") from None
    return None


def _load(path: str) -> Arrangement:
    try:
        return load_tarr(path)
    except OSError as exc:
        raise InvalidParams(f"cannot read {path}: {exc}") from None


def _cmd_count(args) -> _Output:
    arr = _load(args.file)
    cap = _max_sheets(args)
    if args.witnesses:
        witnesses = [[_frac_str(x) for x in w] for w in region_witnesses(arr, max_sheets=cap)]
        f = len(witnesses)
    else:
        witnesses, f = None, count_regions(arr, max_sheets=cap)
    payload = {"command": "count", "d": arr.dim, "n": arr.n, "f": f}
    lines = [f"f = {f}"]
    if witnesses is not None:
        payload["witnesses"] = witnesses
        lines += ["witness: " + " ".join(w) for w in witnesses]
    return payload, lines, EXIT_OK


def _cmd_intersect(args) -> _Output:
    arr = _load(args.file)
    i, j = args.pair
    if not (1 <= i <= arr.n and 1 <= j <= arr.n):
        raise InvalidParams(f"--pair indices must be in 1..{arr.n}")
    if i == j:
        raise InvalidParams("--pair needs two different subtorus indices")
    count = components_pair(arr.tori[i - 1].normal, arr.tori[j - 1].normal)
    payload = {"command": "intersect", "d": arr.dim, "n": arr.n, "pair": [i, j], "f": count}
    return payload, [f"components = {count}"], EXIT_OK


def _cmd_feasible(args) -> _Output:
    fset = feasible_set(args.d, args.n)
    payload = {"command": "feasible", "d": args.d, "n": args.n, "set": fset.to_json()}
    lines = [f"F(T^{args.d},{args.n}) = {fset}"]
    code = EXIT_OK
    if args.test is not None:
        member = fset.contains(args.test)
        payload["verdicts"] = {"l": args.test, "member": member}
        rel = "in" if member else "not in"
        lines = [f"{args.test} {rel} F(T^{args.d},{args.n})"]
        if args.quiet and not member:
            code = EXIT_NOT_FEASIBLE
    return payload, ([] if args.quiet else lines), code


def _cmd_construct(args) -> _Output:
    arr = construct_for(args.d, args.n, args.f, max_sheets=_max_sheets(args))
    header = f"constructed: d={args.d} n={args.n} f={args.f} (verified)"
    payload = {"command": "construct", "d": args.d, "n": args.n, "f": args.f}
    if args.output:
        try:
            save_tarr(arr, args.output, header=header)
        except OSError as exc:
            raise InvalidParams(f"cannot write {args.output}: {exc}") from None
        payload["path"] = args.output
        if not args.json:
            print(f"wrote {args.output}", file=sys.stderr)
        return payload, [], EXIT_OK
    payload["tarr"] = format_tarr(arr, header=header)
    return payload, payload["tarr"].splitlines(), EXIT_OK


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


def _report(args, arr: Arrangement, f: int, footer: tuple[str, ...] = ()) -> _Output:
    """Check every bound for f regions and return the report's payload and lines."""
    report = check_bounds(arr, f)
    payload = {
        "command": args.command,
        "d": arr.dim,
        "n": arr.n,
        "f": f,
        "m": report.m,
        "verdicts": report.to_json(),
    }
    return payload, _report_lines(report) + list(footer), EXIT_OK


def _cmd_verify(args) -> _Output:
    arr = _load(args.file)
    f = count_regions(arr, max_sheets=_max_sheets(args))
    return _report(args, arr, f, ("verdict: OK",))


def _cmd_bounds(args) -> _Output:
    arr = _load(args.file)
    f = args.f if args.f is not None else count_regions(arr, max_sheets=_max_sheets(args))
    return _report(args, arr, f)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="torusarr",
        description="Exact region counting and intersection arithmetic for "
        "arrangements of codimension-one subtori in the flat d-torus.",
    )
    parser.add_argument("--version", action="version", version=f"torusarr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    json_opt = _Parser(add_help=False)
    json_opt.add_argument("--json", action="store_true")
    cap_opt = _Parser(add_help=False)
    cap_opt.add_argument("--max-sheets", type=int, dest="max_sheets")
    both = [json_opt, cap_opt]

    p = sub.add_parser("count", parents=both,
                       help="count complement regions of a .tarr arrangement")
    p.add_argument("file")
    p.add_argument("--witnesses", action="store_true", help="print one rational point per region")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("intersect", parents=[json_opt],
                       help="component count of a pairwise intersection")
    p.add_argument("file")
    p.add_argument("--pair", nargs=2, type=int, required=True, metavar=("I", "J"),
                   help="1-based subtorus indices in file order")
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("feasible", parents=[json_opt], help="achievable region counts for (d, n)")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--test", type=int, default=None, metavar="L",
                   help="test membership of L instead of printing the set")
    p.add_argument("--quiet", action="store_true",
                   help="with --test: no output, exit 0 if member else 2")
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("construct", parents=both,
                       help="build an arrangement achieving a given count")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("f", type=int)
    p.add_argument("-o", "--output", default=None, metavar="FILE",
                   help="write .tarr here instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", parents=both, help="count regions, then check all proven bounds")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", parents=both, help="bound report for an arrangement")
    p.add_argument("file")
    p.add_argument("--f", type=int, default=None,
                   help="use this region count instead of re-deriving it")
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        payload, lines, code = args.func(args)
    except TorusArrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, TheoremViolation) and exc.report is not None:
            for line in _report_lines(exc.report):
                print(line, file=sys.stderr)
        return next((c for t, c in _EXIT_CODES.items() if isinstance(exc, t)), EXIT_ERROR)
    if args.json:
        print(json.dumps(payload, ensure_ascii=False))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
