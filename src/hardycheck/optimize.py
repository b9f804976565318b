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
from dataclasses import dataclass

from .counterfactuals import hardy_constraint_set
from .hardy import build_hardy_configuration
from .quantum import ValidationError, _LazyNumpy, born_joint_probability

np = _LazyNumpy(globals())

INV_PHI = (math.sqrt(5) - 1) / 2  # 1/phi
INV_PHI_SQ = (3 - math.sqrt(5)) / 2  # 1/phi^2

DEFAULT_BRACKET = (0.01, math.pi / 2 - 0.01)
DEFAULT_TOL = 1e-10
ORACLE_GAP_TOL = 1e-8
_PRESCAN_POINTS = 65
# The curve's maximum (5*sqrt(5)-11)/2 and the two angles that attain it (Hardy, PRL 71, 1665 (1993)).
_P4_STAR = (5 * math.sqrt(5) - 11) / 2
_PEAKS = (0.5 * math.asin(3 - math.sqrt(5)), math.pi / 2 - 0.5 * math.asin(3 - math.sqrt(5)))


class ConvergenceError(RuntimeError):
    """The search result missed the reference maximum of the closed-form curve."""


def paradox_probability(theta: float) -> float:
    """P(left -, right +) when both sides pick their first alternative (L1, R1).

    Evaluated through the full state/basis pipeline for Eq4 of
    ``hardy_constraint_set()``, the ((L1,R1), (-,+)) entry of the table.
    Raises ``ValidationError`` outside the open interval (0, pi/2).
    """
    config = build_hardy_configuration(theta)
    (left, right), (left_outcome, right_outcome) = hardy_constraint_set().positivity[0].event_key
    return born_joint_probability(config.state, config.basis(left), left_outcome, config.basis(right), right_outcome)


def reference_curve(thetas: object) -> np.ndarray:
    """Closed-form paradox probability ``(a*b*(b-a)/(1-a*b))**2``, a = cos, b = sin.

    This is the analytic value of :func:`paradox_probability` for the
    construction used by ``build_hardy_configuration``, computed without
    states or bases; it gives the endpoint values of the reference maximum.
    """
    th = np.asarray(thetas, dtype=float)
    a, b = np.cos(th), np.sin(th)
    return (a * b * (b - a) / (1.0 - a * b)) ** 2


def _check_bracket(lo: float, hi: float) -> tuple[float, float]:
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("bracket endpoints must be finite")
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
    values = reference_curve((lo, hi))
    return (hi, float(values[1])) if values[1] > values[0] else (lo, float(values[0]))


@dataclass(frozen=True)
class ObjectiveReport:
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
    reported ``iterations`` counts golden-section contractions only.

    Raises ``ConvergenceError`` if the result misses the closed-form maximum
    over [lo, hi] by more than ``ORACLE_GAP_TOL``, whatever ``tol`` is.
    """
    lo, hi = _check_bracket(lo, hi)
    if not tol > 0.0:
        raise ValidationError(f"tol must be positive, got {tol!r}")

    scan = np.linspace(lo, hi, _PRESCAN_POINTS)[1:-1]
    scan_values = [paradox_probability(float(x)) for x in scan]
    k = int(np.argmax(scan_values))
    best_theta = float(scan[k])
    best_value = float(scan_values[k])
    a = float(scan[k - 1]) if k > 0 else lo
    b = float(scan[k + 1]) if k + 1 < len(scan) else hi

    def consider(theta: float, value: float) -> None:
        nonlocal best_theta, best_value
        if value > best_value:
            best_theta, best_value = theta, value

    iterations = 0
    width = b - a
    if width > tol:
        c = a + INV_PHI_SQ * width
        d = a + INV_PHI * width
        yc = paradox_probability(c)
        yd = paradox_probability(d)
        consider(c, yc)
        consider(d, yd)
        while width > tol and a < c < d < b:
            if yc > yd:
                b, d, yd = d, c, yc
                width = b - a
                c = a + INV_PHI_SQ * width
                yc = paradox_probability(c)
                consider(c, yc)
            else:
                a, c, yc = c, d, yd
                width = b - a
                d = a + INV_PHI * width
                yd = paradox_probability(d)
                consider(d, yd)
            iterations += 1

    _, reference_value = reference_grid_maximum(lo, hi)
    gap = abs(best_value - reference_value)
    if gap > ORACLE_GAP_TOL:
        raise ConvergenceError(f"result misses the closed-form maximum by {gap:.3e}")
    return ObjectiveReport(
        theta_star=best_theta,
        p4_max=best_value,
        iterations=iterations,
        bracket=(lo, hi),
        oracle_gap=gap,
    )

