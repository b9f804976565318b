"""Command-line interface: verify, counterfactual, lhv, optimize, table.

Exit codes: 0 when the command's checks pass, 1 when a check fails (for
example a prediction verdict coming out false), 2 on usage errors such as an
unknown flag or an out-of-range angle.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .counterfactuals import hardy_constraint_set, locality_violation_report
from .hardy import build_hardy_configuration, joint_probability_table, verify_hardy_predictions
from .lhv import hardy_lhv_feasibility
from .optimize import ConvergenceError, maximize_paradox
from .quantum import ValidationError
from .render import UsageError, render_report

DEFAULT_THETA = math.pi / 6


class _Parser(argparse.ArgumentParser):
    # argparse hook; raising keeps library callers away from SystemExit
    def error(self, message: str) -> None:
        raise UsageError(message)


#: (command, its --format choices, help line); csv applies only to the probability table.
_COMMANDS = (
    ("verify", ("json", "text"), "check the three zeros and the paradox positivity"),
    ("counterfactual", ("json", "text"), "machine-check Property 1, Property 2, and the locality flag"),
    ("lhv", ("json", "text"), "scan the 16 deterministic local strategies for feasibility"),
    ("optimize", ("json", "text"), "maximize the paradox probability over the angle"),
    ("table", ("json", "csv", "text"), "emit the full joint probability table"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hardycheck", description="Hardy-type nonlocality verification toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True, parser_class=_Parser)
    for name, formats, summary in _COMMANDS:
        command = sub.add_parser(name, help=summary)
        command.add_argument(
            "--theta",
            type=float,
            default=DEFAULT_THETA,
            help="configuration angle in radians, strictly inside (0, pi/2) [default: pi/6]",
        )
        command.add_argument("--tol", type=float, default=1e-10, help="check tolerance [default: 1e-10]")
        command.add_argument("--format", choices=formats, default="text", help="output format [default: text]")
        command.add_argument("--out", type=Path, default=None, help="write the report to this file instead of stdout")
    return parser


def _run_command(args: argparse.Namespace) -> tuple[object, bool]:
    if args.command == "verify":
        table = joint_probability_table(build_hardy_configuration(args.theta))
        report = verify_hardy_predictions(table, tol=args.tol)
        return report, report.all_hold
    if args.command == "table":
        return joint_probability_table(build_hardy_configuration(args.theta)), True
    if args.command == "counterfactual":
        report = locality_violation_report(hardy_constraint_set())
        return report, report.violation
    if args.command == "lhv":
        result = hardy_lhv_feasibility()
        return result, not result.feasible
    return maximize_paradox(tol=args.tol), True


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.tol > 0.0:
            raise UsageError(f"--tol must be positive, got {args.tol!r}")
        if not (math.isfinite(args.theta) and 0.0 < args.theta < math.pi / 2):
            raise UsageError(f"--theta must lie strictly inside (0, pi/2), got {args.theta!r}")
        report, passed = _run_command(args)
        data = render_report(report, args.format)
    except (UsageError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        try:
            args.out.write_bytes(data)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0 if passed else 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
