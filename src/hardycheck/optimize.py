"""Scalar maximization of the paradox event probability over the configuration angle.

The objective is P(L1-, R1+) under settings (L1,R1) for the configuration at
angle theta. On (0, pi/2) the curve has two equal peaks placed symmetrically
about pi/4, where it vanishes, so the search seeds a golden-section bracket
from a deterministic coarse scan instead of trusting unimodality of the whole
interval. A vectorized closed-form grid reference, independent of the
state/basis pipeline, supplies the gap reported alongside the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hardy import build_hardy_configuration
from .quantum import Outcome, Setting, ValidationError, born_joint_probability

INV_PHI = (math.sqrt(5) - 1) / 2  # 1/phi
INV_PHI_SQ = (3 - math.sqrt(5)) / 2  # 1/phi^2

DEFAULT_BRACKET = (0.01, math.pi / 2 - 0.01)
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
REFERENCE_GRID_STEP = 1e-5
_PRESCAN_POINTS = 65


class ConvergenceError(RuntimeError):
    """The search ran out of iterations or missed the grid reference value."""


def paradox_probability(theta: float) -> float:
    """P(left -, right +) when both sides pick their first alternative (L1, R1).

    Evaluated through the full state/basis pipeline; equals the
    ((L1,R1), (-,+)) entry of the configuration's joint probability table.
    Raises ``ValidationError`` outside the open interval (0, pi/2).
    """
    config = build_hardy_configuration(theta)
    return born_joint_probability(
        config.state, config.basis(Setting.L1), Outcome.MINUS, config.basis(Setting.R1), Outcome.PLUS
    )


def reference_curve(thetas: object) -> np.ndarray:
    """Closed-form paradox probability ``(a*b*(b-a)/(1-a*b))**2``, a = cos, b = sin.

    This is the analytic value of :func:`paradox_probability` for the
    construction used by ``build_hardy_configuration``, computed without
    states or bases; it serves as the independent grid reference.
    """
    th = np.asarray(thetas, dtype=float)
    a = np.cos(th)
    b = np.sin(th)
    return (a * b * (b - a) / (1.0 - a * b)) ** 2


def _check_bracket(lo: float, hi: float) -> tuple[float, float]:
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("bracket endpoints must be finite")
    if not (0.0 < lo < hi < math.pi / 2):
        raise ValidationError(f"need 0 < lo < hi < pi/2, got lo={lo!r}, hi={hi!r}")
    return lo, hi


def reference_grid_maximum(
    lo: float = DEFAULT_BRACKET[0],
    hi: float = DEFAULT_BRACKET[1],
    step: float = REFERENCE_GRID_STEP,
) -> tuple[float, float]:
    """(angle, value) of the reference-curve maximum on a uniform grid over [lo, hi]."""
    lo, hi = _check_bracket(lo, hi)
    if not step > 0.0:
        raise ValidationError(f"step must be positive, got {step!r}")
    grid = np.append(np.arange(lo, hi, step), hi)
    values = reference_curve(grid)
    best = int(np.argmax(values))
    return float(grid[best]), float(values[best])


@dataclass(frozen=True)
class ObjectiveReport:
    """Search result; ``oracle_gap`` is |p4_max - grid reference maximum|."""

    theta_star: float
    p4_max: float
    iterations: int
    bracket: tuple[float, float]
    oracle_gap: float


def maximize_paradox(
    lo: float = DEFAULT_BRACKET[0],
    hi: float = DEFAULT_BRACKET[1],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ObjectiveReport:
    """Maximize the paradox probability over [lo, hi] by seeded golden-section search.

    A deterministic coarse scan over interior points locates the best starting
    cell (the curve is bimodal on the full default interval), then
    golden-section bracketing shrinks that cell until its width drops below
    ``tol``. The reported ``iterations`` counts golden-section contractions
    only.

    Raises ``ConvergenceError`` if the bracket fails to shrink below ``tol``
    within ``max_iter`` iterations, or if the result misses the grid reference
    maximum by more than ``max(tol, 1e-8)``.
    """
    lo, hi = _check_bracket(lo, hi)
    if not tol > 0.0:
        raise ValidationError(f"tol must be positive, got {tol!r}")
    if int(max_iter) < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter!r}")
    max_iter = int(max_iter)

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
        while width > tol and iterations < max_iter:
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
        if width > tol:
            raise ConvergenceError(
                f"bracket width {width:.3e} still above tol {tol:.3e} after {max_iter} iterations"
            )

    _, reference_value = reference_grid_maximum(lo, hi)
    gap = abs(best_value - reference_value)
    if gap > max(tol, 1e-8):
        raise ConvergenceError(f"result misses the grid reference maximum by {gap:.3e}")
    return ObjectiveReport(
        theta_star=best_theta,
        p4_max=best_value,
        iterations=iterations,
        bracket=(lo, hi),
        oracle_gap=gap,
    )


class FiniteDifferenceEstimate(NamedTuple):
    estimate: float
    step: float


def finite_difference_scan(theta: float, h: float) -> FiniteDifferenceEstimate:
    """Central-difference slope (p4(theta+h) - p4(theta-h)) / 2h, O(h^2) accurate.

    Both probe angles must stay strictly inside (0, pi/2). At an interior
    maximizer the estimate collapses toward zero; on monotone stretches its
    sign matches the slope.
    """
    theta = float(theta)
    h = float(h)
    if not h > 0.0:
        raise ValidationError(f"step h must be positive, got {h!r}")
    if not (0.0 < theta - h and theta + h < math.pi / 2):
        raise ValidationError(f"theta +/- h must stay inside (0, pi/2), got theta={theta!r}, h={h!r}")
    slope = (paradox_probability(theta + h) - paradox_probability(theta - h)) / (2.0 * h)
    return FiniteDifferenceEstimate(slope, h)
