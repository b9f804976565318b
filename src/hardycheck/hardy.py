"""Hardy-type two-qubit configurations and their joint probability tables.

A configuration is a state plus one two-outcome basis per setting (L1, L2,
R1, R2), built so that three joint events have probability zero:

    (L2-, R2+) under (L2,R2)    (L2+, R1+) under (L2,R1)    (L1-, R2-) under (L1,R2)

while the paradox event (L1-, R1+) under (L1,R1) keeps strictly positive
probability away from the degenerate angles. This module wraps the floats of
``quantum._hardy_vectors`` in validated objects, checks the four predictions
against a computed table, verifies no-signalling of the marginals, and
translates (setting, outcome) pairs to the single-letter ket labels.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

from .quantum import (
    IDENTITY_TOL,
    LEFT_SETTINGS,
    OUTCOMES,
    RIGHT_SETTINGS,
    MeasurementBasis,
    Outcome,
    Record,
    Setting,
    StateVector,
    ValidationError,
    _BASIS_INDEX,
    _BASIS_ORDER,
    _HARDY_PARADOX,
    _HARDY_ZEROS,
    _as_angle,
    _as_float,
    _hardy_vectors,
    _require,
    _shown,
    born_joint_probability,
)

#: Default tolerance for the three zero constraints; looser than IDENTITY_TOL
#: to absorb the constructor's floating-point solve.
ZERO_TOL = 1e-10

#: No-signalling deviations of a Born-rule table sit at rounding level.
NO_SIGNALLING_TOL = 1e-12

OutcomePair = tuple[Outcome, Outcome]
SettingPair = tuple[Setting, Setting]

#: Fixed serialization order for setting pairs and outcome pairs.
SETTING_PAIRS: tuple[SettingPair, ...] = (
    (Setting.L1, Setting.R1),
    (Setting.L1, Setting.R2),
    (Setting.L2, Setting.R1),
    (Setting.L2, Setting.R2),
)
OUTCOME_PAIRS: tuple[OutcomePair, ...] = tuple((ol, orr) for ol in OUTCOMES for orr in OUTCOMES)
_TABLE_KEYS = frozenset((sp, op) for sp in SETTING_PAIRS for op in OUTCOME_PAIRS)

#: Per setting pair, in serialization order: the pair and its four table keys.
_ROWS = tuple((sp, tuple((sp, op) for op in OUTCOME_PAIRS)) for sp in SETTING_PAIRS)


def setting_pair_label(pair: SettingPair) -> str:
    return f"{pair[0]},{pair[1]}"


def outcome_pair_label(pair: OutcomePair) -> str:
    return f"{pair[0]}{pair[1]}"


class HardyConfiguration(Record, eq=False):
    """A state, four measurement bases (ordered L1, L2, R1, R2), and the angle used to build them, inside (0, pi/2)."""

    state: StateVector
    bases: tuple[MeasurementBasis, MeasurementBasis, MeasurementBasis, MeasurementBasis]
    theta: float

    def __init__(self, state: StateVector, bases: Sequence[MeasurementBasis], theta: float) -> None:
        _require(state, StateVector, "state")
        bases = tuple(_require(bases, Sequence, "bases"))  # a copy the caller cannot edit; a tuple is kept as is
        labels = tuple(_require(basis, MeasurementBasis, "bases entry").label for basis in bases)
        if labels != _BASIS_ORDER:
            raise ValidationError(f"bases must be labelled (L1, L2, R1, R2), got ({', '.join(map(str, labels))})")
        self.__dict__.update(state=state, bases=bases, theta=_as_angle(theta))

    def basis(self, setting: Setting) -> MeasurementBasis:
        try:
            return self.bases[_BASIS_INDEX[setting]]
        except (KeyError, TypeError):
            raise ValidationError(f"setting must be a Setting, got {_shown(setting)}") from None


def build_hardy_configuration(theta: float) -> HardyConfiguration:
    """Build the angle-parametrized configuration satisfying the three zero constraints.

    The state is ``cos(theta)|00> + sin(theta)|11>``; its Schmidt coefficients
    are (cos theta, sin theta). With ``a = cos theta``, ``b = sin theta`` and
    ``g = sqrt(a/b)``, the bases are (unnormalized (plus, minus) pairs):

        L1: (g^3, 1), (1, -g^3)     R1: (1, g^3), (g^3, -1)
        L2: (-g, 1),  (1, g)        R2: (1, -g),  (g, 1)

    Every one of the three constrained joint amplitudes reduces to a multiple
    of ``a - b*g**2 = 0``, so the zeros hold identically in exact arithmetic
    and to rounding error in floats. The zeros leave a one-parameter family of
    bases per angle; this particular member maximizes the remaining paradox
    probability, which comes out as ``(a*b*(b-a)/(1 - a*b))**2``. That value
    vanishes at ``theta = pi/4`` and in the product-state limits.

    Raises ``ValidationError`` unless ``theta`` is a real number strictly inside
    ``(0, pi/2)``; at the endpoints the state is a product state and the basis
    construction degenerates, and below theta of about 2.5e-206 ``g**3`` overflows.
    """
    theta, state, (l1, l2, r1, r2) = _hardy_vectors(theta)
    bases = (
        MeasurementBasis(*l1, label=Setting.L1),
        MeasurementBasis(*l2, label=Setting.L2),
        MeasurementBasis(*r1, label=Setting.R1),
        MeasurementBasis(*r2, label=Setting.R2),
    )
    return HardyConfiguration(state=StateVector(state), bases=bases, theta=theta)


class JointProbabilityTable(Record, eq=False):
    """Born probabilities for all 4 setting pairs x 4 outcome pairs.

    Entries must lie in [0, 1] and each setting-pair row must sum to 1 within
    ``IDENTITY_TOL``. Keys are ``((left_setting, right_setting), (left_outcome,
    right_outcome))``; ``entries`` is a read-only copy.
    """

    entries: Mapping[tuple[SettingPair, OutcomePair], float]

    def __init__(self, entries: Mapping[tuple[SettingPair, OutcomePair], float]) -> None:
        if set(_require(entries, Mapping, "entries")) != _TABLE_KEYS:
            raise ValidationError("table must contain exactly the 16 setting/outcome pair entries")
        clean: dict[tuple[SettingPair, OutcomePair], float] = {}
        for key, value in entries.items():
            p = value if type(value) is float else _as_float(value, "table entry")
            if not -IDENTITY_TOL <= p <= 1.0 + IDENTITY_TOL:  # nan and both infinities fail it too
                raise ValidationError(f"entry {key} = {p!r} outside [0, 1]")
            clean[key] = p
        for pair, keys in _ROWS:
            row_sum = sum(map(clean.__getitem__, keys))
            if abs(row_sum - 1.0) > IDENTITY_TOL:
                raise ValidationError(f"row {setting_pair_label(pair)} sums to {row_sum!r}, not 1")
        object.__setattr__(self, "entries", MappingProxyType(clean))

    def __reduce__(self) -> tuple:  # the read-only view neither pickles nor deep-copies: rebuild from a dict copy
        return type(self), (dict(self.entries),)

    def probability(
        self,
        left_setting: Setting,
        right_setting: Setting,
        left_outcome: Outcome,
        right_outcome: Outcome,
    ) -> float:
        try:
            return self.entries[((left_setting, right_setting), (left_outcome, right_outcome))]
        except (KeyError, TypeError):
            raise ValidationError(
                f"no table entry for left_setting={_shown(left_setting)}, right_setting={_shown(right_setting)}, "
                f"left_outcome={_shown(left_outcome)}, right_outcome={_shown(right_outcome)}"
            ) from None

    def left_marginal(self, left_setting: Setting, left_outcome: Outcome, right_setting: Setting) -> float:
        """P(left outcome | settings), summed over the right outcome."""
        return sum(self.probability(left_setting, right_setting, left_outcome, orr) for orr in OUTCOMES)

    def records(self) -> list[dict[str, object]]:
        """Flat records in the fixed serialization order."""
        return [
            {
                "setting_pair": setting_pair_label(sp),
                "outcome_pair": outcome_pair_label(op),
                "probability": self.entries[(sp, op)],
            }
            for sp in SETTING_PAIRS
            for op in OUTCOME_PAIRS
        ]


def joint_probability_table(config: HardyConfiguration) -> JointProbabilityTable:
    """Evaluate the Born rule for all 4 setting pairs x 4 outcome pairs."""
    state, bases = _require(config, HardyConfiguration, "config").state, config.bases
    entries: dict[tuple[SettingPair, OutcomePair], float] = {}
    for (left, right), keys in _ROWS:
        left_basis, right_basis = bases[_BASIS_INDEX[left]], bases[_BASIS_INDEX[right]]
        for key, (left_outcome, right_outcome) in zip(keys, OUTCOME_PAIRS):
            entries[key] = born_joint_probability(state, left_basis, left_outcome, right_basis, right_outcome)
    return JointProbabilityTable(entries)


@dataclass(frozen=True)
class PredictionReport:
    """The four prediction checks against a joint probability table.

    ``p1_zero``, ``p2_zero``, ``p3_zero`` are the probabilities of the three
    constrained events (labelled Eq1..Eq3); ``p4_positive`` is the paradox
    event probability (Eq4). Verdicts 1..3 hold when the corresponding zero is
    below ``tol``; verdict 4 holds when ``p4_positive`` exceeds ``tol``. The
    left "-" marginal under L1 is reported but not enforced.
    """

    p1_zero: float
    p2_zero: float
    p3_zero: float
    p4_positive: float
    left_minus_marginal_under_L1: float
    verdicts: tuple[bool, bool, bool, bool]
    tol: float
    all_hold: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "all_hold", all(self.verdicts))


def verify_hardy_predictions(table: JointProbabilityTable, tol: float = ZERO_TOL) -> PredictionReport:
    """Check the three zeros and the positive paradox event (``quantum._HARDY_ZEROS``, ``_HARDY_PARADOX``) at ``tol``."""
    _require(table, JointProbabilityTable, "table")
    tol = _as_float(tol, "tol")
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be positive and finite, got {tol!r}")
    p1, p2, p3, p4 = (table.entries[settings, outcomes] for _, settings, outcomes in (*_HARDY_ZEROS, _HARDY_PARADOX))
    _, (left, right), (left_outcome, _) = _HARDY_PARADOX
    marginal = table.left_marginal(left, left_outcome, right)
    verdicts = (p1 < tol, p2 < tol, p3 < tol, p4 > tol)
    return PredictionReport(p1, p2, p3, p4, marginal, verdicts, tol)


@dataclass(frozen=True)
class NoSignallingReport:
    """Largest marginal shift induced by switching the remote setting; ``deviations`` is a read-only copy."""

    passed: bool
    max_deviation: float
    tol: float
    deviations: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "deviations", MappingProxyType(dict(self.deviations)))

    def __reduce__(self) -> tuple:  # as the table's: rebuilt through the constructor, ``deviations`` read-only again
        return type(self), (self.passed, self.max_deviation, self.tol, dict(self.deviations))


#: The eight no-signalling comparisons: a label, then the table keys of the two marginals it compares,
#: the own outcome summed with each remote outcome, under the first and then the second remote setting.
_NO_SIGNALLING_TERMS = tuple(
    (f"P({ls}{o}) R1 vs R2", *(((ls, rs), (o, x)) for rs in RIGHT_SETTINGS for x in OUTCOMES))
    for ls in LEFT_SETTINGS
    for o in OUTCOMES
) + tuple(
    (f"P({rs}{o}) L1 vs L2", *(((ls, rs), (x, o)) for ls in LEFT_SETTINGS for x in OUTCOMES))
    for rs in RIGHT_SETTINGS
    for o in OUTCOMES
)


def no_signalling_check(table: JointProbabilityTable) -> NoSignallingReport:
    """Check that each side's outcome marginals ignore the remote setting choice.

    Eight comparisons: for every (own setting, own outcome) on each side, the
    marginal under the two remote settings must agree within ``NO_SIGNALLING_TOL``.
    """
    e = _require(table, JointProbabilityTable, "table").entries
    deviations = {label: abs((e[k0] + e[k1]) - (e[k2] + e[k3])) for label, k0, k1, k2, k3 in _NO_SIGNALLING_TERMS}
    worst = max(deviations.values())
    return NoSignallingReport(worst <= NO_SIGNALLING_TOL, worst, NO_SIGNALLING_TOL, deviations)


_HARDY_LABELS: dict[tuple[Setting, Outcome], str] = {
    (Setting.L1, Outcome.PLUS): "c1",
    (Setting.L1, Outcome.MINUS): "d1",
    (Setting.L2, Outcome.PLUS): "v1",
    (Setting.L2, Outcome.MINUS): "u1",
    (Setting.R1, Outcome.PLUS): "d2",
    (Setting.R1, Outcome.MINUS): "c2",
    (Setting.R2, Outcome.PLUS): "u2",
    (Setting.R2, Outcome.MINUS): "v2",
}
_HARDY_LABELS_INVERSE = {label: pair for pair, label in _HARDY_LABELS.items()}


def to_hardy_notation(setting: Setting, outcome: Outcome) -> str:
    """Map a (setting, outcome) pair to its single-letter ket label.

    The map is L1(+,-) -> (c1,d1), L2(+,-) -> (v1,u1), R1(+,-) -> (d2,c2),
    R2(+,-) -> (u2,v2); it is a bijection onto the eight labels. Raises
    ``ValidationError`` unless ``setting`` is a ``Setting`` and ``outcome`` an ``Outcome``.
    """
    try:
        return _HARDY_LABELS[(setting, outcome)]
    except (KeyError, TypeError):
        raise ValidationError(f"no ket label for setting {_shown(setting)} and outcome {_shown(outcome)}") from None


def from_hardy_notation(label: str) -> tuple[Setting, Outcome]:
    """Inverse of :func:`to_hardy_notation`; raises ``ValidationError`` unless ``label`` is one of the eight."""
    try:
        return _HARDY_LABELS_INVERSE[label]
    except (KeyError, TypeError):
        raise ValidationError(f"label must be one of the eight ket labels, got {_shown(label)}") from None
