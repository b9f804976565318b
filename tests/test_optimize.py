"""Tests for the paradox-probability objective and the seeded golden-section search.

The independent oracle used here is a dense grid scan (step 1e-5) plus local
refinement of the closed-form curve, with the formula restated inline rather
than imported, so that a defect in either route shows up as a disagreement.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from hardycheck import (
    Setting,
    Outcome,
    ValidationError,
    build_hardy_configuration,
    joint_probability_table,
    maximize_paradox,
    paradox_probability,
    reference_curve,
    reference_grid_maximum,
    render_report,
)

# Exact extremal values of the curve (a*b*(b-a)/(1-a*b))**2: the maximum is
# (5*sqrt(5)-11)/2, attained at theta = asin(3-sqrt(5))/2 and its mirror.
P4_MAX_EXACT = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
THETA_STAR_LEFT = 0.5 * math.asin(3.0 - math.sqrt(5.0))
THETA_STAR_RIGHT = math.pi / 2.0 - THETA_STAR_LEFT

DEFAULT_LO = 0.01
DEFAULT_HI = math.pi / 2 - 0.01


def closed_form_p4(theta: float) -> float:
    a, b = math.cos(theta), math.sin(theta)
    return (a * b * (b - a) / (1.0 - a * b)) ** 2


def central_difference(theta: float, h: float) -> float:
    return (paradox_probability(theta + h) - paradox_probability(theta - h)) / (2.0 * h)


def grid_oracle(lo: float = DEFAULT_LO, hi: float = DEFAULT_HI) -> tuple[float, float]:
    """Dense 1e-5 grid over [lo, hi], refined by a 1e-9-step local grid."""
    grid = np.arange(lo, hi, 1e-5)
    a, b = np.cos(grid), np.sin(grid)
    values = (a * b * (b - a) / (1.0 - a * b)) ** 2
    k = int(np.argmax(values))
    fine = np.linspace(grid[k] - 1e-5, grid[k] + 1e-5, 20001)
    fa, fb = np.cos(fine), np.sin(fine)
    fine_values = (fa * fb * (fb - fa) / (1.0 - fa * fb)) ** 2
    j = int(np.argmax(fine_values))
    return float(fine[j]), float(fine_values[j])


class TestObjective:
    def test_pipeline_agrees_with_closed_form(self) -> None:
        for theta in np.linspace(0.02, math.pi / 2 - 0.02, 101):
            assert paradox_probability(float(theta)) == pytest.approx(closed_form_p4(float(theta)), abs=1e-12)

    def test_equals_the_table_entry(self) -> None:
        theta = 0.9
        table = joint_probability_table(build_hardy_configuration(theta))
        expected = table.probability(Setting.L1, Setting.R1, Outcome.MINUS, Outcome.PLUS)
        assert paradox_probability(theta) == expected

    def test_vanishes_at_pi_over_4(self) -> None:
        assert paradox_probability(math.pi / 4) < 1e-10

    def test_vanishes_in_product_state_limit(self) -> None:
        assert paradox_probability(1e-3) < 1.1e-6
        assert paradox_probability(1e-3) > 0.0

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, -1.0])
    def test_domain_error_at_endpoints(self, theta: float) -> None:
        with pytest.raises(ValidationError):
            paradox_probability(theta)


class TestGridOracle:
    def test_oracle_maximum_matches_exact_value(self) -> None:
        theta_star, p4_max = grid_oracle()
        assert p4_max == pytest.approx(P4_MAX_EXACT, abs=1e-12)
        assert min(abs(theta_star - THETA_STAR_LEFT), abs(theta_star - THETA_STAR_RIGHT)) < 1e-5

    def test_curve_is_bimodal_and_symmetric_about_pi_over_4(self) -> None:
        grid = np.arange(DEFAULT_LO, DEFAULT_HI, 1e-4)
        a, b = np.cos(grid), np.sin(grid)
        values = (a * b * (b - a) / (1.0 - a * b)) ** 2
        interior = np.where((values[1:-1] > values[:-2]) & (values[1:-1] > values[2:]))[0] + 1
        assert len(interior) == 2
        left, right = grid[interior]
        assert left + right == pytest.approx(math.pi / 2, abs=2e-4)
        assert values[interior[0]] == pytest.approx(values[interior[1]], abs=1e-8)

    def test_package_reference_grid_agrees_with_oracle(self) -> None:
        _, package_value = reference_grid_maximum()
        _, oracle_value = grid_oracle()
        assert package_value == pytest.approx(oracle_value, abs=1e-10)

    @pytest.mark.parametrize(
        "thetas",
        [0.3, np.float64(1e-200), np.array(math.nextafter(math.pi / 2, 0.0)), [0.3, math.pi / 4], np.full((2, 3), 0.7)],
    )
    def test_reference_curve_keeps_shape_type_and_formula_bits(self, thetas: object) -> None:
        """Scalars and 0-d arrays give a numpy scalar, arrays keep their shape; bits match the formula."""
        th = np.asarray(thetas, dtype=float)
        a, b = np.cos(th), np.sin(th)
        expected = (a * b * (b - a) / (1.0 - a * b)) ** 2
        got = reference_curve(thetas)
        assert type(got) is type(expected)
        assert np.shape(got) == th.shape
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_reference_maximum_stays_in_the_bracket_and_is_never_below_a_grid(self) -> None:
        """Closed-form (angle, value) against a 1e-5 grid over [lo, hi], refined within the bracket."""
        # A peak inside, peakless stretches on either side of pi/4, one straddling pi/4, an underflowing one,
        # and ones narrower than the grid step; np.arange(0.05, 0.2, 1e-5) ends at 0.20000000000004592.
        brackets = [(DEFAULT_LO, DEFAULT_HI), (0.2, 0.7), (THETA_STAR_LEFT, 0.7), (0.9, THETA_STAR_RIGHT)]
        brackets += [(0.5, 0.75), (0.9, 1.1), (0.6, 1.0), (0.05, 0.2), (1.3, 1.5), (1e-300, 1e-200)]
        brackets += [(0.4, 0.4 + 3e-6), (THETA_STAR_RIGHT - 1e-6, THETA_STAR_RIGHT + 1e-6)]
        rng = random.Random(1993)
        for _ in range(200):
            lo = rng.uniform(1e-3, 1.5)
            brackets.append((lo, rng.uniform(lo, min(lo + rng.choice((1e-4, 0.01, 0.3)), DEFAULT_HI))))
        for lo, hi in brackets:
            grid = np.clip(np.append(np.arange(lo, hi, 1e-5), hi), lo, hi)  # arange can step past hi
            a, b = np.cos(grid), np.sin(grid)
            k = int(np.argmax((a * b * (b - a) / (1.0 - a * b)) ** 2))
            fine = np.linspace(max(lo, grid[k] - 1e-5), min(hi, grid[k] + 1e-5), 20001)
            fa, fb = np.cos(fine), np.sin(fine)
            oracle_value = float(np.max((fa * fb * (fb - fa) / (1.0 - fa * fb)) ** 2))
            theta, value = reference_grid_maximum(lo, hi)
            assert lo <= theta <= hi, (lo, hi, theta)
            assert oracle_value <= value <= oracle_value + 1e-10, (lo, hi)
            assert abs(closed_form_p4(theta) - value) <= 1e-15, (lo, hi)

    def test_oracle_scan_of_the_pipeline_itself(self) -> None:
        """Coarser scan driving the real objective, refined near its best point."""
        coarse = np.linspace(DEFAULT_LO, DEFAULT_HI, 781)
        values = [paradox_probability(float(t)) for t in coarse]
        k = int(np.argmax(values))
        fine = np.linspace(coarse[k - 1], coarse[k + 1], 2001)
        best = max(paradox_probability(float(t)) for t in fine)
        assert best == pytest.approx(P4_MAX_EXACT, abs=1e-8)


class TestMaximizeParadox:
    def test_default_run_matches_grid_oracle(self) -> None:
        report = maximize_paradox()
        _, oracle_value = grid_oracle()
        assert abs(report.p4_max - oracle_value) <= 1e-8
        assert report.oracle_gap <= 1e-8
        assert min(abs(report.theta_star - THETA_STAR_LEFT), abs(report.theta_star - THETA_STAR_RIGHT)) < 1e-6
        assert report.bracket == (DEFAULT_LO, DEFAULT_HI)
        assert DEFAULT_LO < report.theta_star < DEFAULT_HI
        assert 0 < report.iterations <= 200

    def test_result_is_reproducible_bit_for_bit(self) -> None:
        first = maximize_paradox()
        second = maximize_paradox()
        assert first == second
        assert render_report(first, "json") == render_report(second, "json")

    def test_iterations_decrease_with_looser_tolerance(self) -> None:
        loose = maximize_paradox(tol=1e-3)
        tight = maximize_paradox(tol=1e-10)
        assert loose.iterations < tight.iterations
        assert abs(loose.p4_max - P4_MAX_EXACT) <= 1e-3

    def test_bracket_on_monotone_stretch_converges_to_the_edge(self) -> None:
        report = maximize_paradox(lo=0.05, hi=0.3)
        assert 0.05 < report.theta_star < 0.3
        assert report.p4_max == pytest.approx(closed_form_p4(0.3), abs=1e-8)

    def test_bracket_around_single_peak(self) -> None:
        report = maximize_paradox(lo=0.2, hi=0.7)
        assert report.theta_star == pytest.approx(THETA_STAR_LEFT, abs=1e-6)
        assert report.p4_max == pytest.approx(P4_MAX_EXACT, abs=1e-10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lo": 0.5, "hi": 0.5},
            {"lo": -0.1, "hi": 1.0},
            {"lo": 0.1, "hi": math.pi / 2},
            {"tol": 0.0},
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs: dict) -> None:
        with pytest.raises(ValidationError):
            maximize_paradox(**kwargs)


class TestFiniteDifference:
    def test_sign_matches_grid_slope_on_monotone_stretches(self) -> None:
        for theta in (0.2, 0.6, 1.0, 1.3):
            grid_slope = closed_form_p4(theta + 1e-3) - closed_form_p4(theta - 1e-3)
            estimate = central_difference(theta, 1e-4)
            assert math.copysign(1.0, estimate) == math.copysign(1.0, grid_slope)
