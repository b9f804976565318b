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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .quantum import OUTCOMES, Outcome, Setting, ValidationError

#: Field order of the canonical 6-tuple encoding of an instance.
INSTANCE_FIELDS = ("o_L(L1)", "o_L(L2)", "o_R(L1,R1)", "o_R(L1,R2)", "o_R(L2,R1)", "o_R(L2,R2)")

_LEFT_SLOT = {Setting.L1: 0, Setting.L2: 1}
_RIGHT_SLOT = {
    (Setting.L1, Setting.R1): 2,
    (Setting.L1, Setting.R2): 3,
    (Setting.L2, Setting.R1): 4,
    (Setting.L2, Setting.R2): 5,
}


def _require_left(setting: Setting) -> Setting:
    if setting not in _LEFT_SLOT:
        raise ValidationError(f"expected a left-side choice (L1 or L2), got {setting}")
    return setting


def _require_right(setting: Setting) -> Setting:
    if setting.side != "R":
        raise ValidationError(f"expected a right-side choice (R1 or R2), got {setting}")
    return setting


@dataclass(frozen=True)
class OutcomeAssignment:
    """Outcomes in a fixed slot order; subclasses set the slot count ``_size`` and ``_noun``."""

    outcomes: tuple[Outcome, ...]

    def __post_init__(self) -> None:
        values = tuple(self.outcomes)
        if len(values) != self._size or not all(isinstance(o, Outcome) for o in values):
            raise ValidationError(f"{self._noun} needs exactly {self._size} Outcome entries")
        object.__setattr__(self, "outcomes", values)

    @property
    def index(self) -> int:
        """Rank in the canonical enumeration ("+" < "-", leftmost slot most significant)."""
        rank = 0
        for outcome in self.outcomes:
            rank = (rank << 1) | (outcome is Outcome.MINUS)
        return rank

    def labels(self) -> tuple[str, ...]:
        return tuple(str(o) for o in self.outcomes)

    def __str__(self) -> str:
        return "(" + ", ".join(self.labels()) + ")"


@dataclass(frozen=True)
class CounterfactualInstance(OutcomeAssignment):
    """Total outcome assignment, stored as the canonical 6-tuple.

    Tuple order: (o_L(L1), o_L(L2), o_R(L1,R1), o_R(L1,R2), o_R(L2,R1),
    o_R(L2,R2)).
    """

    _size = len(INSTANCE_FIELDS)
    _noun = "an instance"

    @classmethod
    def from_maps(
        cls,
        o_left: Mapping[Setting, Outcome],
        o_right: Mapping[tuple[Setting, Setting], Outcome],
    ) -> CounterfactualInstance:
        values = [None] * 6
        for setting, slot in _LEFT_SLOT.items():
            values[slot] = o_left[setting]
        for pair, slot in _RIGHT_SLOT.items():
            values[slot] = o_right[pair]
        return cls(tuple(values))

    def left_outcome(self, left_choice: Setting) -> Outcome:
        return self.outcomes[_LEFT_SLOT[_require_left(left_choice)]]

    def right_outcome(self, left_choice: Setting, right_choice: Setting) -> Outcome:
        return self.outcomes[_RIGHT_SLOT[(_require_left(left_choice), _require_right(right_choice))]]


@lru_cache(maxsize=1)
def enumerate_instances() -> tuple[CounterfactualInstance, ...]:
    """All 2**6 = 64 instances in lexicographic order over the canonical tuple."""
    return tuple(CounterfactualInstance(combo) for combo in itertools.product(OUTCOMES, repeat=6))


@dataclass(frozen=True)
class Constraint:
    """One joint event, used either as a zero (forbidden) or positivity (must occur) constraint."""

    label: str
    settings: tuple[Setting, Setting]
    outcomes: tuple[Outcome, Outcome]

    def __post_init__(self) -> None:
        left, right = self.settings
        _require_left(left)
        _require_right(right)

    @property
    def event_key(self) -> tuple[tuple[Setting, Setting], tuple[Outcome, Outcome]]:
        return (self.settings, self.outcomes)

    def event_text(self) -> str:
        (sl, sr), (ol, orr) = self.settings, self.outcomes
        return f"({sl}{ol}, {sr}{orr}) under ({sl},{sr})"


@dataclass(frozen=True)
class ConstraintSet:
    """Zero constraints (never realized) plus positivity constraints (realized somewhere)."""

    zeros: tuple[Constraint, ...] = ()
    positivity: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "zeros", tuple(self.zeros))
        object.__setattr__(self, "positivity", tuple(self.positivity))
        zero_events = {c.event_key for c in self.zeros}
        positive_events = {c.event_key for c in self.positivity}
        if zero_events & positive_events:
            raise ValidationError("zero and positivity constraints must be disjoint events")
        labels = [c.label for c in self.zeros + self.positivity]
        if len(labels) != len(set(labels)):
            raise ValidationError("constraint labels must be unique")

    def constraint(self, label: str) -> Constraint:
        for c in self.zeros + self.positivity:
            if c.label == label:
                return c
        raise ValueError(f"no constraint labelled {label!r}")

    def without(self, label: str) -> ConstraintSet:
        """A copy with the named constraint removed (from either list)."""
        self.constraint(label)
        return ConstraintSet(
            zeros=tuple(c for c in self.zeros if c.label != label),
            positivity=tuple(c for c in self.positivity if c.label != label),
        )


def hardy_constraint_set() -> ConstraintSet:
    """The three zero events plus the positivity event of the Hardy-type table."""
    return ConstraintSet(
        zeros=(
            Constraint("Eq1", (Setting.L2, Setting.R2), (Outcome.MINUS, Outcome.PLUS)),
            Constraint("Eq2", (Setting.L2, Setting.R1), (Outcome.PLUS, Outcome.PLUS)),
            Constraint("Eq3", (Setting.L1, Setting.R2), (Outcome.MINUS, Outcome.MINUS)),
        ),
        positivity=(Constraint("Eq4", (Setting.L1, Setting.R1), (Outcome.MINUS, Outcome.PLUS)),),
    )


def realizes(instance: CounterfactualInstance, constraint: Constraint) -> bool:
    """True when the instance produces exactly the constraint's outcome pair under its settings."""
    # Constraint.__post_init__ has already checked the sides of both settings.
    pair, outcomes = constraint.settings, instance.outcomes
    return (
        outcomes[_LEFT_SLOT[pair[0]]] is constraint.outcomes[0]
        and outcomes[_RIGHT_SLOT[pair]] is constraint.outcomes[1]
    )


def satisfies_zeros(instance: CounterfactualInstance, constraint_set: ConstraintSet) -> bool:
    """True when the instance realizes none of the forbidden events."""
    return not any(realizes(instance, zero) for zero in constraint_set.zeros)


@dataclass(frozen=True)
class SRVerdict:
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
    _require_left(context)
    premise = instance.right_outcome(context, Setting.R2) is Outcome.PLUS
    conclusion = instance.right_outcome(context, Setting.R1) is Outcome.MINUS
    return SRVerdict(instance.index, context, premise, (not premise) or conclusion)


@dataclass(frozen=True)
class Property1Report:
    """Exhaustive check that SR holds at context L2 in every zero-satisfying instance."""

    holds: bool
    admissible: tuple[CounterfactualInstance, ...]
    verdicts: tuple[SRVerdict, ...]
    counterexamples: tuple[CounterfactualInstance, ...]
    constraint_set: ConstraintSet

    def to_json_dict(self) -> dict[str, object]:
        return {
            "holds": self.holds,
            "admissible_count": len(self.admissible),
            "admissible_ids": [inst.index for inst in self.admissible],
            "sr_verdicts": self.verdicts,
            "counterexample_ids": [inst.index for inst in self.counterexamples],
            "constraint_set": self.constraint_set,
        }


def check_property1(
    constraint_set: ConstraintSet,
    instances: Iterable[CounterfactualInstance] | None = None,
) -> Property1Report:
    """Does "the left choice is L2" force SR across all zero-satisfying instances?

    With the three zero constraints in place the answer is yes: the premise
    o_R(L2,R2) = + excludes o_L(L2) = - (Eq1), and o_L(L2) = + in turn
    excludes o_R(L2,R1) = + (Eq2), so the conclusion o_R(L2,R1) = - follows.
    """
    pool = enumerate_instances() if instances is None else tuple(instances)
    admissible = tuple(inst for inst in pool if satisfies_zeros(inst, constraint_set))
    verdicts = tuple(evaluate_sr(inst, Setting.L2) for inst in admissible)
    counterexamples = tuple(inst for inst, v in zip(admissible, verdicts) if not v.sr_value)
    return Property1Report(not counterexamples, admissible, verdicts, counterexamples, constraint_set)


@dataclass(frozen=True)
class Property2Report:
    """Witness search showing that "the left choice is L1" does not force SR."""

    witness_found: bool
    witness: CounterfactualInstance | None
    witness_verdict: SRVerdict | None
    witness_count: int
    forced_step: str | None
    constraint_set: ConstraintSet

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


def _forced_premise_step(witness: CounterfactualInstance, constraint_set: ConstraintSet) -> str | None:
    # The zero on settings (L1, R2) pins o_R(L1,R2) once o_L(L1) matches its
    # left outcome; surface that deduction for the report.
    for zero in constraint_set.zeros:
        left_setting, right_setting = zero.settings
        if left_setting is not Setting.L1 or right_setting is not Setting.R2:
            continue
        if witness.left_outcome(Setting.L1) is not zero.outcomes[0]:
            continue
        forced = zero.outcomes[1].opposite
        if witness.right_outcome(Setting.L1, Setting.R2) is forced:
            return f"{zero.label} forces o_R(L1,R2) = {forced} given o_L(L1) = {zero.outcomes[0]}"
    return None


def check_property2(
    constraint_set: ConstraintSet,
    instances: Iterable[CounterfactualInstance] | None = None,
) -> Property2Report:
    """Search for a zero-satisfying instance that realizes every positivity event and falsifies SR at L1.

    For the Hardy constraints any instance realizing (L1-, R1+) works: the
    zero on (L1,R2) forces o_R(L1,R2) = +, so the SR premise holds, while
    o_R(L1,R1) = + denies the conclusion. Returns a failure report (no
    exception) when no candidate survives.
    """
    pool = enumerate_instances() if instances is None else tuple(instances)
    witnesses = [
        inst
        for inst in pool
        if satisfies_zeros(inst, constraint_set)
        and all(realizes(inst, p) for p in constraint_set.positivity)
        and not evaluate_sr(inst, Setting.L1).sr_value
    ]
    if not witnesses:
        return Property2Report(False, None, None, 0, None, constraint_set)
    witness = witnesses[0]
    return Property2Report(
        True,
        witness,
        evaluate_sr(witness, Setting.L1),
        len(witnesses),
        _forced_premise_step(witness, constraint_set),
        constraint_set,
    )


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
    note: str

    def to_json_dict(self) -> dict[str, object]:
        return {
            "violation": self.violation,
            "sr_always_true_at_L2": self.sr_always_true_at_l2,
            "sr_sometimes_false_at_L1": self.sr_sometimes_false_at_l1,
            "note": self.note,
            "property1": self.property1,
            "property2": self.property2,
        }


def locality_violation_report(
    constraint_set: ConstraintSet,
    instances: Iterable[CounterfactualInstance] | None = None,
) -> LocalityReport:
    """Flag a locality violation: SR forced at context L2, falsified at context L1.

    The flag is raised only when both hold non-vacuously: at least one
    admissible instance exists, SR is true in all of them at context L2, and
    some admissible instance realizing the positivity events falsifies SR at
    context L1.
    """
    p1 = check_property1(constraint_set, instances)
    p2 = check_property2(constraint_set, instances)
    forced_at_l2 = p1.holds and bool(p1.admissible)
    falsified_at_l1 = p2.witness_found
    return LocalityReport(
        violation=forced_at_l2 and falsified_at_l1,
        sr_always_true_at_l2=forced_at_l2,
        sr_sometimes_false_at_l1=falsified_at_l1,
        property1=p1,
        property2=p2,
        note=LOCALITY_NOTE,
    )


@dataclass(frozen=True)
class Ensemble:
    """A theory modelled as a set of instances, optionally weighted.

    Weights, when given, are nonnegative rationals summing to exactly 1; all
    logic reads only the support (weight > 0), so no floating point enters the
    logical layer.
    """

    instances: tuple[CounterfactualInstance, ...]
    weights: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "instances", tuple(self.instances))
        if self.weights is not None:
            weights = tuple(Fraction(w) for w in self.weights)
            if len(weights) != len(self.instances):
                raise ValidationError("need one weight per instance")
            if any(w < 0 for w in weights):
                raise ValidationError("weights must be nonnegative")
            if sum(weights) != 1:
                raise ValidationError("weights must sum to exactly 1")
            object.__setattr__(self, "weights", weights)

    def support(self) -> tuple[CounterfactualInstance, ...]:
        if self.weights is None:
            return self.instances
        return tuple(inst for inst, w in zip(self.instances, self.weights) if w > 0)

    def realizes(self, constraint: Constraint) -> bool:
        return any(realizes(inst, constraint) for inst in self.support())


#: Left events an admissible ensemble must realize by default: only (L1, -),
#: the case the SR falsification needs; stronger requirements are opt-in.
DEFAULT_REQUIRED_LEFT_EVENTS: tuple[tuple[Setting, Outcome], ...] = ((Setting.L1, Outcome.MINUS),)

ALL_LEFT_EVENTS: tuple[tuple[Setting, Outcome], ...] = (
    (Setting.L1, Outcome.PLUS),
    (Setting.L1, Outcome.MINUS),
    (Setting.L2, Outcome.PLUS),
    (Setting.L2, Outcome.MINUS),
)


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    failures: tuple[str, ...]


def ensemble_admissible(
    ensemble: Ensemble,
    constraint_set: ConstraintSet,
    *,
    required_left_events: tuple[tuple[Setting, Outcome], ...] = DEFAULT_REQUIRED_LEFT_EVENTS,
) -> AdmissibilityReport:
    """Check an ensemble against the constraints: zeros per supported instance,
    positivity and required left events as existentials over the support."""
    failures: list[str] = []
    support = ensemble.support()
    for inst in support:
        for zero in constraint_set.zeros:
            if realizes(inst, zero):
                failures.append(f"instance {inst.index} realizes zero event {zero.label}")
    for positive in constraint_set.positivity:
        if not ensemble.realizes(positive):
            failures.append(f"positivity event {positive.label} never realized")
    for setting, outcome in required_left_events:
        if not any(inst.left_outcome(setting) is outcome for inst in support):
            failures.append(f"left event {setting}{outcome} never realized")
    return AdmissibilityReport(not failures, tuple(failures))
