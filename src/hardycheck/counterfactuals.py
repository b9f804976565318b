"""Exhaustive counterfactual outcome assignments and the SR machine checks.

A counterfactual instance assigns a left outcome to each left choice and a
right outcome to each (left choice, right choice) pair:

    o_L : {L1, L2} -> {+, -}
    o_R : {L1, L2} x {R1, R2} -> {+, -}

Two structural features matter. Every choice combination is assigned an
outcome, so both alternatives on each side can be contemplated at once. And
o_L takes no right-choice argument, so a switch on the later right side can
never disturb the recorded left outcome; the right outcome, by contrast, is
allowed to depend on the left choice. Locality is therefore something the
checks can refute, not an assumption built into the carrier.

The statement SR reads: "if the second right alternative (R2) is performed
and gives +, then the first (R1), performed instead, would have given -".
Its truth conditions refer only to right-side events, which is what makes
the dependence of its truth value on the left choice a locality violation.

The checks decide with instance sets, ints whose bit i stands for the
instance of index i: a constraint takes its set from the per-slot sets, a
constraint set combines those of its constraints (agreeing with ``realizes``
and ``satisfies_zeros``), and ``_sr_table`` tabulates ``evaluate_sr`` once.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, or_

from .quantum import LEFT_SETTINGS, OUTCOMES, RIGHT_SETTINGS, Outcome, Record, Setting, ValidationError, _MINUS, _require, _shown
from .quantum import _HARDY_PARADOX, _HARDY_ZEROS

#: Field order of the canonical 6-tuple encoding of an instance.
INSTANCE_FIELDS = ("o_L(L1)", "o_L(L2)", "o_R(L1,R1)", "o_R(L1,R2)", "o_R(L2,R1)", "o_R(L2,R2)")

_LEFT_SLOT = {Setting.L1: 0, Setting.L2: 1}
_RIGHT_SLOT = {
    (Setting.L1, Setting.R1): 2,
    (Setting.L1, Setting.R2): 3,
    (Setting.L2, Setting.R1): 4,
    (Setting.L2, Setting.R2): 5,
}
#: Every instance, as an instance set.
_ALL_INSTANCES = (1 << 2 ** len(INSTANCE_FIELDS)) - 1
#: The (R1, R2) right slots SR reads at each left context.
_SR_SLOTS = {left: (_RIGHT_SLOT[left, Setting.R1], _RIGHT_SLOT[left, Setting.R2]) for left in LEFT_SETTINGS}
#: Maps a binary numeral's digits to the 0/1 bytes ``itertools.compress`` reads.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _require_side(setting: object, side: tuple[Setting, Setting]) -> Setting:
    """Return ``setting`` if it is one of ``side`` (``LEFT_SETTINGS`` or ``RIGHT_SETTINGS``)."""
    if setting not in side:
        name = "left" if side is LEFT_SETTINGS else "right"
        got = setting if isinstance(setting, Setting) else f"{_shown(setting)} ({type(setting).__name__})"
        raise ValidationError(f"expected a {name}-side choice ({side[0]} or {side[1]}), got {got}")
    return setting


class OutcomeAssignment(Record):
    """Outcomes in a fixed slot order; subclasses, with no new field, set ``_size`` and ``_noun``."""

    outcomes: tuple[Outcome, ...]

    def __init__(self, outcomes: Iterable[Outcome]) -> None:
        values = tuple(outcomes) if isinstance(outcomes, Iterable) else ()
        if len(values) != self._size or not all(isinstance(o, Outcome) for o in values):
            raise ValidationError(f"{self._noun} needs exactly {self._size} Outcome entries")
        # index: the rank in the canonical enumeration ("+" < "-", leftmost slot most significant).
        rank = 0
        for outcome in values:
            rank = (rank << 1) | (outcome is _MINUS)
        self.__dict__.update(outcomes=values, index=rank)

    def labels(self) -> tuple[str, ...]:
        return tuple(str(o) for o in self.outcomes)

    def __str__(self) -> str:
        return "(" + ", ".join(self.labels()) + ")"


class CounterfactualInstance(OutcomeAssignment):
    """Total outcome assignment, stored as the canonical 6-tuple.

    Tuple order: (o_L(L1), o_L(L2), o_R(L1,R1), o_R(L1,R2), o_R(L2,R1),
    o_R(L2,R2)).
    """

    _size = len(INSTANCE_FIELDS)
    _noun = "an instance"

    def left_outcome(self, left_choice: Setting) -> Outcome:
        return self.outcomes[_LEFT_SLOT[_require_side(left_choice, LEFT_SETTINGS)]]


# Lazy, like ``_sr_table``, unlike the tables built at import: only the counterfactual command reads either.
@lru_cache(maxsize=1)
def enumerate_instances() -> tuple[CounterfactualInstance, ...]:
    """All 2**6 = 64 instances in lexicographic order over the canonical tuple."""
    return tuple(CounterfactualInstance(combo) for combo in itertools.product(OUTCOMES, repeat=6))


#: Per slot, the set of instances taking each outcome there. Slot k is bit 5 - k of the index, so "+" takes alternate
#: runs of ``run = 2**(5 - k)`` indices from index 0, ``_ALL_INSTANCES // (2**run + 1)``, and "-" the runs between.
_SLOT_MASKS = tuple(
    {Outcome.PLUS: _ALL_INSTANCES // (2**run + 1), Outcome.MINUS: _ALL_INSTANCES // (2**run + 1) << run}
    for run in (32, 16, 8, 4, 2, 1)
)


def _select(instances: int, items: tuple) -> tuple:
    """The entries of ``items`` whose instance is in the set ``instances``, in index order, by one ``compress`` pass."""
    return tuple(itertools.compress(items, f"{instances:b}"[::-1].encode().translate(_DIGIT_BYTES)))


class Constraint(Record):
    """One joint event, used either as a zero (forbidden) or positivity (must occur) constraint."""

    label: str
    settings: tuple[Setting, Setting]
    outcomes: tuple[Outcome, Outcome]

    def __init__(self, label: str, settings: tuple[Setting, Setting], outcomes: tuple[Outcome, Outcome]) -> None:
        if not (isinstance(label, str) and label):
            raise ValidationError(f"constraint label must be a non-empty string, got {_shown(label)}")
        if not (isinstance(settings, tuple) and isinstance(outcomes, tuple) and len(settings) == len(outcomes) == 2):
            raise ValidationError(f"constraint {_shown(label)} needs a (left, right) tuple of settings and of outcomes")
        if not all(isinstance(o, Outcome) for o in outcomes):
            raise ValidationError(f"constraint {_shown(label)} outcomes must be Outcome members, got {_shown(outcomes)}")
        _require_side(settings[0], LEFT_SETTINGS)
        _require_side(settings[1], RIGHT_SETTINGS)
        # Not a field, so eq, hash and JSON ignore it: the instances realizing the event.
        left, right = _LEFT_SLOT[settings[0]], _RIGHT_SLOT[settings]
        instances = _SLOT_MASKS[left][outcomes[0]] & _SLOT_MASKS[right][outcomes[1]]
        self.__dict__.update(label=label, settings=settings, outcomes=outcomes, _instances=instances)

    @property
    def event_key(self) -> tuple[tuple[Setting, Setting], tuple[Outcome, Outcome]]:
        return (self.settings, self.outcomes)

    def event_text(self) -> str:
        (sl, sr), (ol, orr) = self.settings, self.outcomes
        return f"({sl}{ol}, {sr}{orr}) under ({sl},{sr})"


class ConstraintSet(Record):
    """Zero constraints (never realized) plus positivity constraints (realized somewhere)."""

    zeros: tuple[Constraint, ...]
    positivity: tuple[Constraint, ...]

    def __init__(self, zeros: Iterable[Constraint] = (), positivity: Iterable[Constraint] = ()) -> None:
        entries = {}
        for name, value in (("zeros", zeros), ("positivity", positivity)):
            if not isinstance(value, Iterable):
                raise ValidationError(f"constraint set {name} must be an iterable of Constraint objects, got {_shown(value)}")
            entries[name] = tuple(value)
        zeros, positivity = entries.values()
        if not all(isinstance(c, Constraint) for c in zeros + positivity):
            raise ValidationError("constraint set entries must be Constraint objects")
        if {c.event_key for c in zeros} & {c.event_key for c in positivity}:
            raise ValidationError("zero and positivity constraints must be disjoint events")
        labels = [c.label for c in zeros + positivity]
        if len(labels) != len(set(labels)):
            raise ValidationError("constraint labels must be unique")
        # Not fields: the instances realizing no zero event, and those realizing every positivity event.
        entries["_allowed"] = _ALL_INSTANCES & ~reduce(or_, (c._instances for c in zeros), 0)
        entries["_realized"] = reduce(and_, (c._instances for c in positivity), _ALL_INSTANCES)
        self.__dict__.update(entries)

    def constraint(self, label: str) -> Constraint:
        for c in self.zeros + self.positivity:
            if c.label == label:
                return c
        raise ValidationError(f"label {_shown(label)} names no constraint in this set")

    def without(self, label: str) -> ConstraintSet:
        """A copy with the named constraint removed (from either list)."""
        self.constraint(label)
        return ConstraintSet(
            zeros=tuple(c for c in self.zeros if c.label != label),
            positivity=tuple(c for c in self.positivity if c.label != label),
        )


_HARDY_CONSTRAINTS = ConstraintSet((Constraint(*row) for row in _HARDY_ZEROS), (Constraint(*_HARDY_PARADOX),))


def hardy_constraint_set() -> ConstraintSet:
    """The four Hardy events as constraints, built once from the rows ``quantum._HARDY_ZEROS`` and ``_HARDY_PARADOX``."""
    return _HARDY_CONSTRAINTS


def realizes(instance: CounterfactualInstance, constraint: Constraint) -> bool:
    """True when the instance produces exactly the constraint's outcome pair under its settings."""
    outcomes = _require(instance, CounterfactualInstance, "instance").outcomes
    settings = _require(constraint, Constraint, "constraint").settings
    left, right = _LEFT_SLOT[settings[0]], _RIGHT_SLOT[settings]
    return outcomes[left] is constraint.outcomes[0] and outcomes[right] is constraint.outcomes[1]


def satisfies_zeros(instance: CounterfactualInstance, constraint_set: ConstraintSet) -> bool:
    """True when the instance realizes none of the forbidden events."""
    _require(instance, CounterfactualInstance, "instance")
    return not any(realizes(instance, zero) for zero in _require(constraint_set, ConstraintSet, "constraint_set").zeros)


class SRVerdict(Record):
    """Truth value of SR for one instance at one left context.

    ``premise_holds`` is o_R(context, R2) = +; ``sr_value`` is the material
    conditional: premise false, or o_R(context, R1) = -.
    """

    instance_index: int
    context: Setting
    premise_holds: bool
    sr_value: bool


def evaluate_sr(instance: CounterfactualInstance, context: Setting) -> SRVerdict:
    """Evaluate SR at a left context by reading both right entries of one instance.

    Comparing o_R(context, R2) against o_R(context, R1) within a single
    instance is legitimate because the left outcome at this context is one
    slot, untouched by the right-side switch.
    """
    r1, r2 = _SR_SLOTS[_require_side(context, LEFT_SETTINGS)]
    premise = _require(instance, CounterfactualInstance, "instance").outcomes[r2] is Outcome.PLUS
    conclusion = instance.outcomes[r1] is Outcome.MINUS
    return SRVerdict(instance.index, context, premise, (not premise) or conclusion)


@lru_cache(maxsize=1)
def _sr_table() -> dict[Setting, tuple[tuple[SRVerdict, ...], int]]:
    """Per left context, SR's verdict on every instance, by index, and the set of instances where SR is false."""
    verdicts = {ctx: tuple(evaluate_sr(inst, ctx) for inst in enumerate_instances()) for ctx in LEFT_SETTINGS}
    return {ctx: (v, sum(1 << s.instance_index for s in v if not s.sr_value)) for ctx, v in verdicts.items()}


class Property1Report(Record):
    """Exhaustive check that SR holds at context L2 in every zero-satisfying instance."""

    holds: bool
    admissible: tuple[CounterfactualInstance, ...]
    verdicts: tuple[SRVerdict, ...]
    counterexamples: tuple[CounterfactualInstance, ...]
    constraint_set: ConstraintSet

    def __init__(self, holds, admissible, verdicts, counterexamples, constraint_set) -> None:  # one per locality report
        self.__dict__.update(
            holds=holds, admissible=admissible, verdicts=verdicts, counterexamples=counterexamples,
            constraint_set=constraint_set,
        )

    def to_json_dict(self) -> dict[str, object]:
        return {
            "holds": self.holds,
            "admissible_count": len(self.admissible),
            "admissible_ids": [inst.index for inst in self.admissible],
            "sr_verdicts": self.verdicts,
            "counterexample_ids": [inst.index for inst in self.counterexamples],
            "constraint_set": self.constraint_set,
        }


def check_property1(constraint_set: ConstraintSet) -> Property1Report:
    """Does "the left choice is L2" force SR across all zero-satisfying instances?

    With the three zero constraints in place the answer is yes: the premise
    o_R(L2,R2) = + excludes o_L(L2) = - (Eq1), and o_L(L2) = + in turn
    excludes o_R(L2,R1) = + (Eq2), so the conclusion o_R(L2,R1) = - follows.
    """
    allowed = _require(constraint_set, ConstraintSet, "constraint_set")._allowed
    verdicts, sr_false = _sr_table()[Setting.L2]
    instances = enumerate_instances()
    admissible, counterexamples = _select(allowed, instances), _select(allowed & sr_false, instances)
    return Property1Report(not counterexamples, admissible, _select(allowed, verdicts), counterexamples, constraint_set)


class Property2Report(Record):
    """Witness search showing that "the left choice is L1" does not force SR."""

    witness_found: bool
    witness: CounterfactualInstance | None
    witness_verdict: SRVerdict | None
    witness_count: int
    forced_step: str | None
    constraint_set: ConstraintSet

    def __init__(self, witness_found, witness, witness_verdict, witness_count, forced_step, constraint_set) -> None:
        self.__dict__.update(
            witness_found=witness_found, witness=witness, witness_verdict=witness_verdict, witness_count=witness_count,
            forced_step=forced_step, constraint_set=constraint_set,
        )

    def to_json_dict(self) -> dict[str, object]:
        return {
            "witness_found": self.witness_found,
            "witness_id": None if self.witness is None else self.witness.index,
            "witness": None if self.witness is None else list(self.witness.labels()),
            "witness_count": self.witness_count,
            "sr_verdict": self.witness_verdict,
            "forced_step": self.forced_step,
            "constraint_set": self.constraint_set,
        }


def check_property2(constraint_set: ConstraintSet) -> Property2Report:
    """Find a zero-satisfying instance that realizes every positivity event and falsifies SR at L1.

    The witnesses are the instances in the allowed set, the realized set and
    SR's false set at L1 at once; the report names the lowest-index one. For
    the Hardy constraints any instance realizing (L1-, R1+) works: the zero
    on (L1,R2) forces o_R(L1,R2) = +, so the SR premise holds, while
    o_R(L1,R1) = + denies the conclusion. That forced step is read off the
    first zero on the event (L1 o, R2 -), o the witness's o_L(L1): the witness
    is allowed, so no zero contradicts it, and o_L(L1) alone forces slots only
    at (L1, .), each in one step. Returns a failure report (no exception) when
    the intersection is empty.
    """
    _require(constraint_set, ConstraintSet, "constraint_set")
    verdicts, sr_false = _sr_table()[Setting.L1]
    witnesses = constraint_set._allowed & constraint_set._realized & sr_false
    if not witnesses:
        return Property2Report(False, None, None, 0, None, constraint_set)
    first = (witnesses & -witnesses).bit_length() - 1
    witness = enumerate_instances()[first]
    given = witness.left_outcome(Setting.L1)
    premise_zero = ((Setting.L1, Setting.R2), (given, Outcome.MINUS))
    zero = next((z for z in constraint_set.zeros if z.event_key == premise_zero), None)
    step = None if zero is None else f"{zero.label} forces o_R(L1,R2) = + given o_L(L1) = {given}"
    return Property2Report(True, witness, verdicts[first], witnesses.bit_count(), step, constraint_set)


LOCALITY_NOTE = (
    "SR is decided entirely by right-side events, yet across the admitted "
    "instances its truth value tracks the free choice made on the left side."
)


@dataclass(frozen=True)
class LocalityReport:
    """Aggregate of both property checks and the resulting locality-violation flag."""

    violation: bool
    sr_always_true_at_l2: bool
    sr_sometimes_false_at_l1: bool
    property1: Property1Report
    property2: Property2Report
    note = LOCALITY_NOTE

    def to_json_dict(self) -> dict[str, object]:
        return {
            "violation": self.violation,
            "sr_always_true_at_L2": self.sr_always_true_at_l2,
            "sr_sometimes_false_at_L1": self.sr_sometimes_false_at_l1,
            "note": self.note,
            "property1": self.property1,
            "property2": self.property2,
        }


def locality_violation_report(constraint_set: ConstraintSet) -> LocalityReport:
    """Flag a locality violation: SR forced at context L2, falsified at context L1.

    The flag is raised only when both hold non-vacuously: at least one
    admissible instance exists, SR is true in all of them at context L2, and
    some admissible instance realizing the positivity events falsifies SR at
    context L1.
    """
    p1 = check_property1(constraint_set)
    p2 = check_property2(constraint_set)
    forced_at_l2 = p1.holds and bool(p1.admissible)
    falsified_at_l1 = p2.witness_found
    return LocalityReport(
        violation=forced_at_l2 and falsified_at_l1,
        sr_always_true_at_l2=forced_at_l2,
        sr_sometimes_false_at_l1=falsified_at_l1,
        property1=p1,
        property2=p2,
    )
