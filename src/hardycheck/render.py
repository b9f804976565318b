"""Deterministic report rendering: fixed key order, 17-significant-digit floats.

In JSON a record (a ``quantum.Record`` or a dataclass) renders as its fields in declaration order, or
as its ``to_json_dict()`` where keys are renamed or derived; an enum as its string.
Each type gets one emitter, built on first sight, holding what it encodes once: a record's ``"name": ``
field heads, a ``to_json_dict`` type's heads for its last keys, an enum's member texts.
Each indent depth's brackets and separator are built once.
A frozen record with field-wise eq and no ``to_json_dict`` that hashes (holds no mapping or list) keeps
its text per indent depth as ``_json``, which dies with it: depth 0 as rendered, each other depth shifted
from it once, as every raw newline is structural: strings have their own newlines escaped.
A text renderer is found by the module and name of the report's class, so render runs no model module.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection
from contextlib import suppress
from enum import Enum
from functools import partial
from types import MappingProxyType

try:  # the C function json.encoder re-exports, without loading the json package
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from . import counterfactuals, hardy, lhv, optimize  # lazy (see __init__): only annotations name them
from .quantum import _HARDY_PARADOX, _HARDY_ZEROS, Record, ValidationError, _shown


class UsageError(ValueError):
    """Malformed command usage; the CLI maps this to exit code 2."""


def format_float(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"cannot serialize non-finite float {value!r}")
    return format(value, ".17g")


Emitter = Callable[[object, int, list[str]], None]


class _Pads(dict):
    """Per indent depth: the list and dict openers, the separator, the list and dict closers; built on first use."""

    def __missing__(self, indent: int) -> tuple[str, str, str, str, str]:
        pad = "\n" + "  " * indent
        return self.setdefault(indent, ("[" + pad + "  ", "{" + pad + "  ", "," + pad + "  ", pad + "]", pad + "}"))


_PADS = _Pads()


def _emit_list(value: list | tuple, indent: int, out: list[str]) -> None:
    head, _, sep, closer, _ = _PADS[indent]
    for item in value:
        out.append(head)
        (_EMITTERS.get(type(item)) or _emitter(type(item)))(item, indent + 1, out)
        head = sep
    out.append(closer if value else "[]")


def _emit_members(heads: Collection[tuple[str, object]], get: Callable, value: object, indent: int, out: list[str]) -> None:
    """Emit ``get(value, key)`` under each encoded ``"key": `` head."""
    _, opener, sep, _, closer = _PADS[indent]
    for head, key in heads:
        out.append(opener + head)
        item = get(value, key)
        (_EMITTERS.get(type(item)) or _emitter(type(item)))(item, indent + 1, out)
        opener = sep
    out.append(closer if heads else "{}")


def _key(key: object) -> str:
    """A key that is not a ``str`` as ``json.dumps`` writes it: a float by its repr, not as a float value is."""
    if isinstance(key, float):
        return float.__repr__(key) if math.isfinite(key) else format_float(key)  # which refuses nan and inf
    if key is None or isinstance(key, bool):
        return "null" if key is None else "true" if key else "false"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _heads(keys: Collection) -> tuple[tuple[str, object], ...]:
    return tuple((encode_basestring_ascii(key if isinstance(key, str) else _key(key)) + ": ", key) for key in keys)


def _emit_dict(value: dict | MappingProxyType, indent: int, out: list[str]) -> None:
    _emit_members(_heads(value), type(value).__getitem__, value, indent, out)


def _emit_derived(kept: list, value: object, indent: int, out: list[str]) -> None:
    """Emit ``value.to_json_dict()`` under the heads ``kept`` for its type's last ``str`` keys, else under new heads."""
    members = value.to_json_dict()
    keys, heads = kept[0]
    if (now := tuple(members)) != keys:
        heads = _heads(now)
        if all(type(key) is str for key in now):  # an equal int or bool key would have another head
            kept[0] = now, heads
    _emit_members(heads, type(members).__getitem__, members, indent, out)


def _emit_enum(texts: dict[int, str], value: Enum, indent: int, out: list[str]) -> None:
    """A listed member's text, by identity (it may hash in Python, or not at all); else (a ``Flag`` combination) new."""
    out.append(texts.get(id(value)) or encode_basestring_ascii(str(value)))


def _emit_kept(emit: Emitter, value: object, indent: int, out: list[str]) -> None:
    texts = getattr(value, "_json", None)
    if texts is None:
        emit(value, 0, parts := [])
        texts = {0: "".join(parts)}
        with suppress(TypeError, AttributeError):  # unhashable: a dict or list inside; or slots and no __dict__
            hash(value)
            object.__setattr__(value, "_json", texts)
    out.append(texts.get(indent) or texts.setdefault(indent, texts[0].replace("\n", "\n" + "  " * indent)))


def _emitter(cls: type) -> Emitter:
    """Pick a type's emitter by the first base below that it has, and keep it in ``_EMITTERS``."""
    if issubclass(cls, bool):
        emit = lambda value, indent, out: out.append("true" if value else "false")
    elif cls is type(None):
        emit = lambda value, indent, out: out.append("null")
    elif cls is int:
        emit = lambda value, indent, out: out.append(str(value))
    elif issubclass(cls, int):  # as json.dumps writes it: not by a subclass's __str__, such as an IntEnum's on 3.10
        emit = lambda value, indent, out: out.append(int.__repr__(value))
    elif issubclass(cls, float):
        emit = lambda value, indent, out: out.append(format_float(value))
    elif issubclass(cls, Enum):
        emit = partial(_emit_enum, {id(member): encode_basestring_ascii(str(member)) for member in cls})
    elif issubclass(cls, str):
        emit = lambda value, indent, out: out.append(encode_basestring_ascii(str(value)))
    elif issubclass(cls, (dict, MappingProxyType)):
        emit = _emit_dict
    elif issubclass(cls, (list, tuple)):
        emit = _emit_list
    elif hasattr(cls, "to_json_dict"):
        emit = partial(_emit_derived, [((), ())])
    elif issubclass(cls, Record) or hasattr(cls, "__dataclass_fields__"):  # dataclasses.is_dataclass's test
        if not issubclass(cls, Record):
            from dataclasses import fields  # loaded already: the class was made with it
        names = cls._fields if issubclass(cls, Record) else [f.name for f in fields(cls)]
        emit = partial(_emit_members, _heads(names), getattr)  # heads encoded once per type
        params = getattr(cls, "__dataclass_params__", None)  # a Record is frozen; a dataclass says so in its params
        if cls.__eq__ is Record.__eq__ or params and params.frozen and params.eq:
            emit = partial(_emit_kept, emit)
    else:
        raise TypeError(f"cannot serialize {cls.__name__} to JSON")
    _EMITTERS[cls] = emit
    return emit


_EMITTERS: dict[type, Emitter] = {}  # one entry per type, filled on first sight


def to_json_text(payload: object) -> str:
    """Stable JSON: insertion key order, 17-significant-digit decimal floats."""
    out: list[str] = []
    try:
        (_EMITTERS.get(type(payload)) or _emitter(type(payload)))(payload, 0, out)
    except (ValueError, RecursionError) as exc:  # an int of more digits than str() takes; nesting past the recursion limit
        raise exc if isinstance(exc, ValidationError) else ValidationError(f"cannot serialize payload: {exc}") from exc
    out.append("\n")
    return "".join(out)


def _yes(ok: bool) -> str:
    return "yes" if ok else "NO"


def _text_prediction(report: hardy.PredictionReport) -> str:
    values = (report.p1_zero, report.p2_zero, report.p3_zero, report.p4_positive)
    lines = [f"Hardy prediction report (tol = {format_float(report.tol)})"]
    for row, p, ok in zip((*_HARDY_ZEROS, _HARDY_PARADOX), values, report.verdicts):
        label, (sl, sr), (ol, orr) = row
        check = "positive above tol" if row is _HARDY_PARADOX else "zero within tol"
        lines.append(f"  {label}  P({sl}{ol}, {sr}{orr} | {sl},{sr}) = {format_float(p)}  {check}: {_yes(ok)}")
    _, (sl, _), (ol, _) = _HARDY_PARADOX
    lines.append(f"  P({sl}{ol} | {sl}) = {format_float(report.left_minus_marginal_under_L1)} (reported, not enforced)")
    lines.append(f"  all predictions hold: {_yes(report.all_hold)}")
    return "\n".join(lines)


def _text_table(table: hardy.JointProbabilityTable) -> str:
    lines = ["setting pair   outcome pair   probability"]
    for record in table.records():
        lines.append(
            f"{record['setting_pair']:<14} {record['outcome_pair']:<14} "
            f"{format_float(float(record['probability']))}"
        )
    return "\n".join(lines)


def _csv_table(table: hardy.JointProbabilityTable) -> str:
    lines = ["setting_pair,outcome_pair,probability"]
    for record in table.records():
        prob = format_float(record["probability"])
        lines.append(f"\"{record['setting_pair']}\",{record['outcome_pair']},{prob}")
    return "\n".join(lines)


def _text_property1(report: counterfactuals.Property1Report) -> str:
    lines = [
        f"Property 1 (L2 implies SR): {'holds' if report.holds else 'FAILS'} "
        f"over {len(report.admissible)} zero-satisfying instances"
    ]
    for inst in report.counterexamples:
        lines.append(f"  counterexample #{inst.index}: {inst}")
    return "\n".join(lines)


def _text_property2(report: counterfactuals.Property2Report) -> str:
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


def _text_locality(report: counterfactuals.LocalityReport) -> str:
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


def _text_feasibility(result: lhv.FeasibilityResult) -> str:
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


def _text_objective(report: optimize.ObjectiveReport) -> str:
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


#: Each printed report type, by module and name, so that render imports no report class, and its text renderer.
_TEXT_RENDERERS = {
    ("hardycheck.hardy", "PredictionReport"): _text_prediction,
    ("hardycheck.hardy", "JointProbabilityTable"): _text_table,
    ("hardycheck.counterfactuals", "LocalityReport"): _text_locality,
    ("hardycheck.lhv", "FeasibilityResult"): _text_feasibility,
    ("hardycheck.optimize", "ObjectiveReport"): _text_objective,
}
_TABLE = ("hardycheck.hardy", "JointProbabilityTable")


def _printed_type(report: object) -> tuple[str, str] | None:
    """The first of the report's classes that a command prints, as a ``_TEXT_RENDERERS`` key."""
    for cls in type(report).__mro__:
        if (key := (cls.__module__, cls.__qualname__)) in _TEXT_RENDERERS:
            return key
    return None


def render_report(report: object, fmt: str) -> bytes:
    """Render any module report to bytes in the requested format.

    ``csv`` applies only to probability tables; asking for it elsewhere raises
    ``UsageError``. Rendering is pure: the same report and format always
    produce identical bytes.
    """
    kind = _printed_type(report)
    if fmt == "json":
        return to_json_text(report.records() if kind == _TABLE else report).encode("utf-8")
    if fmt == "csv":
        if kind == _TABLE:
            return (_csv_table(report) + "\n").encode("utf-8")
        raise UsageError("csv output is only available for probability tables")
    if fmt == "text":
        if kind is not None:
            return (_TEXT_RENDERERS[kind](report) + "\n").encode("utf-8")
        raise TypeError(f"no text renderer for {type(report).__name__}")
    raise UsageError(f"unknown format: {_shown(fmt)}")
