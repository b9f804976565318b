"""Scalar maximization of the paradox event probability over the configuration angle.

The objective is P(L1-, R1+) under settings (L1,R1) for the configuration at
angle theta. On (0, pi/2) the curve has two equal peaks placed symmetrically
about pi/4, where it vanishes, so the search seeds a golden-section bracket
from a deterministic coarse scan instead of trusting unimodality of the whole
interval. The closed-form maximum over the bracket, independent of the
state/basis pipeline, supplies the gap reported alongside the result.
"""

from __future__ import annotations

import math

from .hardy import _BASIS_INDEX, _as_angle, _hardy_vectors
from .quantum import INPUT_TOL, OUTCOMES, Record, ValidationError, _as_float, _basis_deviations
from .quantum import _HARDY_PARADOX, _basis_failures, _born, _not_orthonormal, _unit_state

INV_PHI = (math.sqrt(5) - 1) / 2  # 1/phi
INV_PHI_SQ = (3 - math.sqrt(5)) / 2  # 1/phi^2

DEFAULT_BRACKET = (0.01, math.pi / 2 - 0.01)
DEFAULT_TOL = 1e-10
ORACLE_GAP_TOL = 1e-8
_PRESCAN_POINTS = 65
# The curve's maximum (5*sqrt(5)-11)/2 and the two angles that attain it (Hardy, PRL 71, 1665 (1993)).
_P4_STAR = (5 * math.sqrt(5) - 11) / 2
_PEAKS = (0.5 * math.asin(3 - math.sqrt(5)), math.pi / 2 - 0.5 * math.asin(3 - math.sqrt(5)))
#: (setting, index in ``_BASIS_ORDER``, index in ``OUTCOMES``) for each side of the paradox event (Eq4).
_PARADOX_EVENT = tuple((s, _BASIS_INDEX[s], OUTCOMES.index(o)) for s, o in zip(*_HARDY_PARADOX[1:]))


class ConvergenceError(RuntimeError):
    """The search result missed the reference maximum of the closed-form curve."""


def paradox_probability(theta: float) -> float:
    """P(left -, right +) when both sides pick their first alternative (L1, R1).

    The event is the row ``quantum._HARDY_PARADOX`` (Eq4). On the vectors of
    ``build_hardy_configuration``, without building objects, the objective runs
    the checks of the state, of that event's two bases and of the Born call in
    their order and returns the Born kernel it shares with
    ``born_joint_probability``: the ((L1,R1), (-,+)) table entry bit for bit, or
    the same error. Raises ``ValidationError`` unless ``theta`` is a real
    number strictly inside (0, pi/2).
    """
    _, state, pairs = _hardy_vectors(theta)
    (left, left_index, left_outcome), (right, right_index, right_outcome) = _PARADOX_EVENT
    psi, left_pair, right_pair = _unit_state(state), pairs[left_index], pairs[right_index]
    for setting, vectors in ((left, left_pair), (right, right_pair)):
        if failures := _basis_failures(*_basis_deviations(*vectors), INPUT_TOL):
            raise _not_orthonormal(setting, failures)
    return _born(left_pair[left_outcome], right_pair[right_outcome], psi)


def _curve(theta: float) -> float:
    """The formula of :func:`reference_curve`. Package code calls this copy: the benchmark
    tracer wraps ``reference_curve`` and reads the ``size`` of an array result."""
    a, b = math.cos(theta), math.sin(theta)
    return (a * b * (b - a) / (1.0 - a * b)) ** 2


def reference_curve(theta: float) -> float:
    """Closed-form paradox probability ``(a*b*(b-a)/(1-a*b))**2``, a = cos, b = sin.

    This is the analytic value of :func:`paradox_probability` for the
    construction used by ``build_hardy_configuration``, computed without
    states or bases, and rejects the angles ``paradox_probability`` rejects.
    """
    return _curve(_as_angle(theta))


def _check_bracket(lo: float, hi: float) -> tuple[float, float]:
    lo, hi = _as_float(lo, "lo"), _as_float(hi, "hi")
    if not (0.0 < lo < hi < math.pi / 2):
        raise ValidationError(f"need 0 < lo < hi < pi/2, got lo={lo!r}, hi={hi!r}")
    return lo, hi


def reference_grid_maximum(lo: float = DEFAULT_BRACKET[0], hi: float = DEFAULT_BRACKET[1]) -> tuple[float, float]:
    """(angle, value) of the reference-curve maximum over [lo, hi], in closed form.

    The curve is monotone between each peak and pi/4, so without a peak inside
    the maximum is at an endpoint. The name is kept for the benchmark tracer.
    """
    lo, hi = _check_bracket(lo, hi)
    for peak in _PEAKS:
        if lo <= peak <= hi:
            return peak, _P4_STAR
    lo_value, hi_value = _curve(lo), _curve(hi)
    return (hi, hi_value) if hi_value > lo_value else (lo, lo_value)


class ObjectiveReport(Record):
    """Search result; ``oracle_gap`` is |p4_max - the curve's true maximum over ``bracket``|."""

    theta_star: float
    p4_max: float
    iterations: int
    bracket: tuple[float, float]
    oracle_gap: float


def maximize_paradox(
    lo: float = DEFAULT_BRACKET[0], hi: float = DEFAULT_BRACKET[1], tol: float = DEFAULT_TOL
) -> ObjectiveReport:
    """Maximize the paradox probability over [lo, hi] by seeded golden-section search.

    A deterministic coarse scan over interior points locates the best starting
    cell (the curve is bimodal on the full default interval), then
    golden-section bracketing shrinks that cell until its width drops below
    ``tol`` or its interior points no longer separate in floating point, so
    every pass strictly shrinks the bracket and the loop always ends. The
    result is the first evaluation that attains the largest value, and the
    reported ``iterations`` counts golden-section contractions only.

    Raises ``ConvergenceError`` if the result misses the closed-form maximum
    over [lo, hi] by more than ``ORACLE_GAP_TOL``, whatever ``tol`` is.
    """
    lo, hi = _check_bracket(lo, hi)
    tol = _as_float(tol, "tol")
    if not tol > 0.0:
        raise ValidationError(f"tol must be positive, got {tol!r}")

    # Every evaluation in order: the interior of np.linspace(lo, hi, 65), two seeds, then one point per contraction.
    step = (hi - lo) / (_PRESCAN_POINTS - 1)
    grid = [lo, *(lo + i * step for i in range(1, _PRESCAN_POINTS - 1)), hi]
    thetas = grid[1:-1]
    values = [paradox_probability(x) for x in thetas]
    k = values.index(max(values))
    a, b = grid[k], grid[k + 2]  # the best prescan point's cell

    iterations = 0
    if b - a > tol:
        c, d = a + INV_PHI_SQ * (b - a), a + INV_PHI * (b - a)
        yc, yd = paradox_probability(c), paradox_probability(d)
        thetas += (c, d)
        values += (yc, yd)
        while b - a > tol and a < c < d < b:
            if yc > yd:
                b, d, yd = d, c, yc
                c = a + INV_PHI_SQ * (b - a)
                yc = paradox_probability(c)
                thetas.append(c)
                values.append(yc)
            else:
                a, c, yc = c, d, yd
                d = a + INV_PHI * (b - a)
                yd = paradox_probability(d)
                thetas.append(d)
                values.append(yd)
            iterations += 1

    best = values.index(max(values))
    _, reference_value = reference_grid_maximum(lo, hi)
    gap = abs(values[best] - reference_value)
    if gap > ORACLE_GAP_TOL:
        raise ConvergenceError(f"result misses the closed-form maximum by {gap:.3e}")
    return ObjectiveReport(
        theta_star=thetas[best], p4_max=values[best], iterations=iterations, bracket=(lo, hi), oracle_gap=gap
    )

