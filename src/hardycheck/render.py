"""Deterministic report rendering: fixed key order, 17-significant-digit floats.

In JSON a dataclass renders as its fields in declaration order, or as its
``to_json_dict()`` where keys are renamed or derived; an enum as its string.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from enum import Enum
from functools import cache
from json.encoder import encode_basestring_ascii

from .counterfactuals import LocalityReport, Property1Report, Property2Report
from .hardy import JointProbabilityTable, NoSignallingReport, PredictionReport
from .lhv import FeasibilityResult
from .optimize import ObjectiveReport
from .quantum import BasisReport


class UsageError(ValueError):
    """Malformed command usage; the CLI maps this to exit code 2."""


def format_float(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return format(value, ".17g")


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    # One entry per dataclass type rendered; fields() is too slow to call per object.
    return tuple(f.name for f in fields(cls))


def _emit(value: object, indent: int, out: list[str]) -> None:
    if value is True or value is False:
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_float(value))
    elif isinstance(value, (str, Enum)):
        out.append(encode_basestring_ascii(str(value)))
    elif isinstance(value, dict):
        pad = "\n" + "  " * indent
        sep = "{" + pad + "  "
        for key, item in value.items():
            out.append(f"{sep}{encode_basestring_ascii(str(key))}: ")
            _emit(item, indent + 1, out)
            sep = "," + pad + "  "
        out.append(pad + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        pad = "\n" + "  " * indent
        sep = "[" + pad + "  "
        for item in value:
            out.append(sep)
            _emit(item, indent + 1, out)
            sep = "," + pad + "  "
        out.append(pad + "]" if value else "[]")
    elif hasattr(value, "to_json_dict"):
        _emit(value.to_json_dict(), indent, out)
    elif is_dataclass(value):
        _emit({name: getattr(value, name) for name in _field_names(type(value))}, indent, out)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def to_json_text(payload: object) -> str:
    """Stable JSON: insertion key order, 17-significant-digit decimal floats."""
    out: list[str] = []
    _emit(payload, 0, out)
    out.append("\n")
    return "".join(out)


def _yes(ok: bool) -> str:
    return "yes" if ok else "NO"


def _text_prediction(report: PredictionReport) -> str:
    lines = [
        f"Hardy prediction report (tol = {format_float(report.tol)})",
        f"  Eq1  P(L2-, R2+ | L2,R2) = {format_float(report.p1_zero)}  zero within tol: {_yes(report.verdicts[0])}",
        f"  Eq2  P(L2+, R1+ | L2,R1) = {format_float(report.p2_zero)}  zero within tol: {_yes(report.verdicts[1])}",
        f"  Eq3  P(L1-, R2- | L1,R2) = {format_float(report.p3_zero)}  zero within tol: {_yes(report.verdicts[2])}",
        f"  Eq4  P(L1-, R1+ | L1,R1) = {format_float(report.p4_positive)}  positive above tol: {_yes(report.verdicts[3])}",
        f"  P(L1- | L1) = {format_float(report.left_minus_marginal_under_L1)} (reported, not enforced)",
        f"  all predictions hold: {_yes(report.all_hold)}",
    ]
    return "\n".join(lines)


def _text_table(table: JointProbabilityTable) -> str:
    lines = ["setting pair   outcome pair   probability"]
    for record in table.records():
        lines.append(
            f"{record['setting_pair']:<14} {record['outcome_pair']:<14} "
            f"{format_float(float(record['probability']))}"
        )
    return "\n".join(lines)


def _csv_table(table: JointProbabilityTable) -> str:
    lines = ["setting_pair,outcome_pair,probability"]
    for record in table.records():
        prob = format_float(record["probability"])
        lines.append(f"\"{record['setting_pair']}\",{record['outcome_pair']},{prob}")
    return "\n".join(lines)


def _text_no_signalling(report: NoSignallingReport) -> str:
    lines = [
        f"No-signalling check (tol = {format_float(report.tol)})",
        f"  max marginal deviation = {format_float(report.max_deviation)}",
        f"  passed: {'yes' if report.passed else 'NO'}",
    ]
    for label, dev in report.deviations.items():
        lines.append(f"  {label}: {format_float(dev)}")
    return "\n".join(lines)


def _text_property1(report: Property1Report) -> str:
    lines = [
        f"Property 1 (L2 implies SR): {'holds' if report.holds else 'FAILS'} "
        f"over {len(report.admissible)} zero-satisfying instances"
    ]
    for inst in report.counterexamples:
        lines.append(f"  counterexample #{inst.index}: {inst}")
    return "\n".join(lines)


def _text_property2(report: Property2Report) -> str:
    if not report.witness_found:
        return 'Property 2 ("L1 implies SR" is false): NO witness found'
    lines = [
        'Property 2 ("L1 implies SR" is false): witness '
        f"#{report.witness.index} = {report.witness} ({report.witness_count} candidates)"
    ]
    if report.forced_step:
        lines.append(f"  {report.forced_step}")
    lines.append("  SR premise holds at L1, conclusion fails")
    return "\n".join(lines)


def _text_locality(report: LocalityReport) -> str:
    lines = [
        "Counterfactual locality analysis",
        "  " + _text_property1(report.property1).replace("\n", "\n  "),
        "  " + _text_property2(report.property2).replace("\n", "\n  "),
        f"  SR true in every admissible instance at choice L2: {'yes' if report.sr_always_true_at_l2 else 'no'}",
        f"  SR false in some admissible instance at choice L1: {'yes' if report.sr_sometimes_false_at_l1 else 'no'}",
        f"  locality violation: {'yes' if report.violation else 'no'}",
        f"  note: {report.note}",
    ]
    return "\n".join(lines)


def _text_feasibility(result: FeasibilityResult) -> str:
    lines = [
        "Local deterministic strategy feasibility",
        f"  strategies compatible with all constraints: {len(result.witnesses)} of 16",
        f"  feasible: {'yes' if result.feasible else 'no'}",
    ]
    for witness in result.witnesses:
        lines.append(f"  witness #{witness.index}: {witness}")
    for assumption in result.assumed:
        lines.append(f"  assumed {assumption}")
    if result.trace:
        lines.append("  deduction:")
        for step in result.trace:
            lines.append(f"    {step.constraint}  {step.assignment}")
    return "\n".join(lines)


def _text_objective(report: ObjectiveReport) -> str:
    return "\n".join(
        [
            "Paradox probability maximization",
            f"  bracket    = [{format_float(report.bracket[0])}, {format_float(report.bracket[1])}]",
            f"  theta_star = {format_float(report.theta_star)}",
            f"  p4_max     = {format_float(report.p4_max)}",
            f"  iterations = {report.iterations}",
            f"  oracle gap = {format_float(report.oracle_gap)}",
        ]
    )


def _text_basis(report: BasisReport) -> str:
    lines = [f"Basis orthonormality check (tol = {format_float(report.tol)}): {'pass' if report.passed else 'FAIL'}"]
    for failure in report.failures:
        lines.append(f"  {failure}")
    return "\n".join(lines)


_TEXT_RENDERERS = (
    (PredictionReport, _text_prediction),
    (JointProbabilityTable, _text_table),
    (NoSignallingReport, _text_no_signalling),
    (LocalityReport, _text_locality),
    (Property1Report, _text_property1),
    (Property2Report, _text_property2),
    (FeasibilityResult, _text_feasibility),
    (ObjectiveReport, _text_objective),
    (BasisReport, _text_basis),
)


def render_report(report: object, fmt: str) -> bytes:
    """Render any module report to bytes in the requested format.

    ``csv`` applies only to probability tables; asking for it elsewhere raises
    ``UsageError``. Rendering is pure: the same report and format always
    produce identical bytes.
    """
    if fmt == "json":
        payload = report.records() if isinstance(report, JointProbabilityTable) else report
        return to_json_text(payload).encode("utf-8")
    if fmt == "csv":
        if isinstance(report, JointProbabilityTable):
            return (_csv_table(report) + "\n").encode("utf-8")
        raise UsageError("csv output is only available for probability tables")
    if fmt == "text":
        for kind, renderer in _TEXT_RENDERERS:
            if isinstance(report, kind):
                return (renderer(report) + "\n").encode("utf-8")
        raise TypeError(f"no text renderer for {type(report).__name__}")
    raise UsageError(f"unknown format: {fmt!r}")
