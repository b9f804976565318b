"""Hardy-type two-qubit configurations and their joint probability tables.

A configuration is a state plus one two-outcome basis per setting (L1, L2,
R1, R2), built so that three joint events have probability zero:

    (L2-, R2+) under (L2,R2)    (L2+, R1+) under (L2,R1)    (L1-, R2-) under (L1,R2)

while the paradox event (L1-, R1+) under (L1,R1) keeps strictly positive
probability away from the degenerate angles. This module also checks those
four predictions against a computed table, verifies no-signalling of the
marginals, and translates (setting, outcome) pairs to the single-letter ket
labels traditionally used for this construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum import (
    IDENTITY_TOL,
    OUTCOMES,
    MeasurementBasis,
    Outcome,
    Setting,
    StateVector,
    ValidationError,
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

_BASIS_ORDER = (Setting.L1, Setting.L2, Setting.R1, Setting.R2)


def setting_pair_label(pair: SettingPair) -> str:
    return f"{pair[0]},{pair[1]}"


def outcome_pair_label(pair: OutcomePair) -> str:
    return f"{pair[0]}{pair[1]}"


@dataclass(frozen=True, eq=False)
class HardyConfiguration:
    """A state, four measurement bases (ordered L1, L2, R1, R2), and the angle used to build them."""

    state: StateVector
    bases: tuple[MeasurementBasis, MeasurementBasis, MeasurementBasis, MeasurementBasis]
    theta: float

    def __post_init__(self) -> None:
        labels = tuple(basis.label for basis in self.bases)
        if labels != _BASIS_ORDER:
            raise ValidationError(f"bases must be labelled {_BASIS_ORDER}, got {labels}")

    def basis(self, setting: Setting) -> MeasurementBasis:
        return self.bases[_BASIS_ORDER.index(setting)]


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

    Raises ``ValidationError`` unless ``theta`` lies strictly inside
    ``(0, pi/2)``; at the endpoints the state is a product state and the basis
    construction degenerates.
    """
    theta = float(theta)
    if not math.isfinite(theta) or not 0.0 < theta < math.pi / 2:
        raise ValidationError(f"theta must lie strictly inside (0, pi/2), got {theta!r}")
    a = math.cos(theta)
    b = math.sin(theta)
    g = math.sqrt(a / b)
    g3 = g**3
    n1 = math.hypot(1.0, g)
    n3 = math.hypot(1.0, g3)

    def vec(x: float, y: float, norm: float) -> np.ndarray:
        return np.array([x / norm, y / norm], dtype=complex)

    bases = (
        MeasurementBasis(plus=vec(g3, 1.0, n3), minus=vec(1.0, -g3, n3), label=Setting.L1),
        MeasurementBasis(plus=vec(-g, 1.0, n1), minus=vec(1.0, g, n1), label=Setting.L2),
        MeasurementBasis(plus=vec(1.0, g3, n3), minus=vec(g3, -1.0, n3), label=Setting.R1),
        MeasurementBasis(plus=vec(1.0, -g, n1), minus=vec(g, 1.0, n1), label=Setting.R2),
    )
    state = StateVector(np.array([a, 0.0, 0.0, b], dtype=complex))
    return HardyConfiguration(state=state, bases=bases, theta=theta)


@dataclass(frozen=True, eq=False)
class JointProbabilityTable:
    """Born probabilities for all 4 setting pairs x 4 outcome pairs.

    Entries must lie in [0, 1] and each setting-pair row must sum to 1 within
    ``IDENTITY_TOL``. Keys are ``((left_setting, right_setting), (left_outcome,
    right_outcome))``.
    """

    entries: dict[tuple[SettingPair, OutcomePair], float]

    def __post_init__(self) -> None:
        expected = {(sp, op) for sp in SETTING_PAIRS for op in OUTCOME_PAIRS}
        if set(self.entries) != expected:
            raise ValidationError("table must contain exactly the 16 setting/outcome pair entries")
        clean: dict[tuple[SettingPair, OutcomePair], float] = {}
        for key, value in self.entries.items():
            p = float(value)
            if not math.isfinite(p) or p < -IDENTITY_TOL or p > 1.0 + IDENTITY_TOL:
                raise ValidationError(f"entry {key} = {p!r} outside [0, 1]")
            clean[key] = p
        for pair in SETTING_PAIRS:
            row_sum = sum(clean[(pair, op)] for op in OUTCOME_PAIRS)
            if abs(row_sum - 1.0) > IDENTITY_TOL:
                raise ValidationError(f"row {setting_pair_label(pair)} sums to {row_sum!r}, not 1")
        object.__setattr__(self, "entries", clean)

    def probability(
        self,
        left_setting: Setting,
        right_setting: Setting,
        left_outcome: Outcome,
        right_outcome: Outcome,
    ) -> float:
        return self.entries[((left_setting, right_setting), (left_outcome, right_outcome))]

    def row(self, left_setting: Setting, right_setting: Setting) -> dict[OutcomePair, float]:
        return {op: self.entries[((left_setting, right_setting), op)] for op in OUTCOME_PAIRS}

    def left_marginal(self, left_setting: Setting, left_outcome: Outcome, right_setting: Setting) -> float:
        """P(left outcome | settings), summed over the right outcome."""
        return sum(
            self.entries[((left_setting, right_setting), (left_outcome, orr))] for orr in OUTCOMES
        )

    def right_marginal(self, right_setting: Setting, right_outcome: Outcome, left_setting: Setting) -> float:
        """P(right outcome | settings), summed over the left outcome."""
        return sum(
            self.entries[((left_setting, right_setting), (ol, right_outcome))] for ol in OUTCOMES
        )

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
    entries: dict[tuple[SettingPair, OutcomePair], float] = {}
    for pair in SETTING_PAIRS:
        left_basis = config.basis(pair[0])
        right_basis = config.basis(pair[1])
        for op in OUTCOME_PAIRS:
            entries[(pair, op)] = born_joint_probability(config.state, left_basis, op[0], right_basis, op[1])
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

    @property
    def all_hold(self) -> bool:
        return all(self.verdicts)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "p1_zero": self.p1_zero,
            "p2_zero": self.p2_zero,
            "p3_zero": self.p3_zero,
            "p4_positive": self.p4_positive,
            "left_minus_marginal_under_L1": self.left_minus_marginal_under_L1,
            "verdicts": self.verdicts,
            "tol": self.tol,
            "all_hold": self.all_hold,
        }


def verify_hardy_predictions(table: JointProbabilityTable, tol: float = ZERO_TOL) -> PredictionReport:
    """Check the three zeros and the positivity of the paradox event at ``tol``."""
    if not tol > 0.0:
        raise ValidationError(f"tol must be positive, got {tol!r}")
    p1 = table.probability(Setting.L2, Setting.R2, Outcome.MINUS, Outcome.PLUS)
    p2 = table.probability(Setting.L2, Setting.R1, Outcome.PLUS, Outcome.PLUS)
    p3 = table.probability(Setting.L1, Setting.R2, Outcome.MINUS, Outcome.MINUS)
    p4 = table.probability(Setting.L1, Setting.R1, Outcome.MINUS, Outcome.PLUS)
    marginal = table.left_marginal(Setting.L1, Outcome.MINUS, Setting.R1)
    verdicts = (p1 < tol, p2 < tol, p3 < tol, p4 > tol)
    return PredictionReport(p1, p2, p3, p4, marginal, verdicts, float(tol))


@dataclass(frozen=True)
class NoSignallingReport:
    """Largest marginal shift induced by switching the remote setting."""

    passed: bool
    max_deviation: float
    tol: float
    deviations: dict[str, float]


def no_signalling_check(table: JointProbabilityTable, tol: float = NO_SIGNALLING_TOL) -> NoSignallingReport:
    """Check that each side's outcome marginals ignore the remote setting choice.

    Eight comparisons: for every (own setting, own outcome) on each side, the
    marginal under the two remote settings must agree within ``tol``.
    """
    deviations: dict[str, float] = {}
    for left_setting in (Setting.L1, Setting.L2):
        for outcome in OUTCOMES:
            m_r1 = table.left_marginal(left_setting, outcome, Setting.R1)
            m_r2 = table.left_marginal(left_setting, outcome, Setting.R2)
            deviations[f"P({left_setting}{outcome}) R1 vs R2"] = abs(m_r1 - m_r2)
    for right_setting in (Setting.R1, Setting.R2):
        for outcome in OUTCOMES:
            m_l1 = table.right_marginal(right_setting, outcome, Setting.L1)
            m_l2 = table.right_marginal(right_setting, outcome, Setting.L2)
            deviations[f"P({right_setting}{outcome}) L1 vs L2"] = abs(m_l1 - m_l2)
    worst = max(deviations.values())
    return NoSignallingReport(worst <= tol, worst, float(tol), deviations)


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
    R2(+,-) -> (u2,v2); it is a bijection onto the eight labels.
    """
    return _HARDY_LABELS[(setting, outcome)]


def from_hardy_notation(label: str) -> tuple[Setting, Outcome]:
    """Inverse of :func:`to_hardy_notation`; raises ``ValueError`` on unknown labels."""
    try:
        return _HARDY_LABELS_INVERSE[label]
    except KeyError:
        raise ValueError(f"unknown ket label: {label!r}") from None
