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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--theta",
        type=float,
        default=DEFAULT_THETA,
        help="configuration angle in radians, strictly inside (0, pi/2) [default: pi/6]",
    )
    common.add_argument("--tol", type=float, default=1e-10, help="check tolerance [default: 1e-10]")
    common.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="text",
        help="output format; csv applies only to the table command [default: text]",
    )
    common.add_argument("--out", type=Path, default=None, help="write the report to this file instead of stdout")

    parser = _Parser(prog="hardycheck", description="Hardy-type nonlocality verification toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.add_parser("verify", parents=[common], help="check the three zeros and the paradox positivity")
    sub.add_parser("counterfactual", parents=[common], help="machine-check Property 1, Property 2, and the locality flag")
    sub.add_parser("lhv", parents=[common], help="scan the 16 deterministic local strategies for feasibility")
    sub.add_parser("optimize", parents=[common], help="maximize the paradox probability over the angle")
    sub.add_parser("table", parents=[common], help="emit the full joint probability table")
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
        if getattr(args, "command", None) is None:
            raise UsageError("a command is required (verify, counterfactual, lhv, optimize, table)")
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
