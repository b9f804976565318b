"""Command-line interface: verify, counterfactual, lhv, optimize, table.

Each command takes only the flags it reads (``--theta``: verify, table;
``--tol``: verify, optimize), and the library checks each value.

Exit codes: 0 when the command's checks pass, 1 when a check fails (for example a prediction verdict coming
out false), 2 on usage errors (an unknown or abbreviated flag, a flag the command does not take, an out-of-range
angle) and when the report cannot be written (an ``--out`` path that cannot be opened, a stdout whose reader has gone).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path

from . import counterfactuals, hardy, lhv, optimize  # lazy (see __init__): a command runs only those it calls
from .quantum import ValidationError
from .render import UsageError, render_report

DEFAULT_THETA = math.pi / 6


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")  # argparse hook: -1e-9 and -.5 are values, not flags

    # argparse hook; raising keeps library callers away from SystemExit. Unprintable characters are escaped: one line.
    def error(self, message: str) -> None:
        raise UsageError("".join(c if c.isprintable() else c.encode("unicode_escape").decode() for c in message))


#: (flag, default, help line) of each value flag.
_THETA = ("--theta", DEFAULT_THETA, "configuration angle in radians, strictly inside (0, pi/2) [default: pi/6]")
_TOL = ("--tol", 1e-10, "check tolerance [default: 1e-10]")

#: (command, its --format choices, the value flags it reads, help line); csv applies only to the probability table.
_COMMANDS = (
    ("verify", ("json", "text"), (_THETA, _TOL), "check the three zeros and the paradox positivity"),
    ("counterfactual", ("json", "text"), (), "machine-check Property 1, Property 2, and the locality flag"),
    ("lhv", ("json", "text"), (), "scan the 16 deterministic local strategies for feasibility"),
    ("optimize", ("json", "text"), (_TOL,), "maximize the paradox probability over the angle"),
    ("table", ("json", "csv", "text"), (_THETA,), "emit the full joint probability table"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hardycheck", description="Hardy-type nonlocality verification toolkit", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", metavar="command", required=True, parser_class=_Parser)
    for name, formats, flags, summary in _COMMANDS:
        command = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag, default, text in flags:
            command.add_argument(flag, type=float, default=default, help=text)
        command.add_argument("--format", choices=formats, default="text", help="output format [default: text]")
        command.add_argument("--out", type=Path, default=None, help="write the report to this file instead of stdout")
    return parser


def _run_command(args: argparse.Namespace) -> tuple[object, bool]:
    if args.command == "verify":
        table = hardy.joint_probability_table(hardy.build_hardy_configuration(args.theta))
        report = hardy.verify_hardy_predictions(table, tol=args.tol)
        return report, report.all_hold
    if args.command == "table":
        return hardy.joint_probability_table(hardy.build_hardy_configuration(args.theta)), True
    if args.command == "counterfactual":
        report = counterfactuals.locality_violation_report(counterfactuals.hardy_constraint_set())
        return report, report.violation
    if args.command == "lhv":
        result = lhv.hardy_lhv_feasibility()
        return result, not result.feasible
    return optimize.maximize_paradox(tol=args.tol), True


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report, passed = _run_command(args)
        data = render_report(report, args.format)
    except (UsageError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except optimize.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.out is not None:
            args.out.write_bytes(data)
        else:
            sys.stdout.write(data.decode("utf-8"))
            sys.stdout.flush()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        if args.out is None:  # the reader has gone: send what is still buffered to devnull (signal docs, SIGPIPE)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
