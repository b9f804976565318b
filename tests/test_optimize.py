"""Tests for the paradox-probability objective and the seeded golden-section search.

The independent oracle used here is a dense grid scan (step 1e-5) plus local
refinement of the closed-form curve, with the formula restated inline rather
than imported, so that a defect in either route shows up as a disagreement.
"""

from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hardycheck.optimize as optimize_module
import hardycheck.quantum as quantum_module
from hardycheck import (
    DEFAULT_BRACKET,
    MeasurementBasis,
    Outcome,
    Setting,
    StateVector,
    ValidationError,
    born_joint_probability,
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


# maximize_paradox results as float.hex: (theta_star, p4_max, iterations, oracle_gap). The default call, then
# (lo, hi, tol) triples drawn like the benchmark's optimize workload: a peak, lo uniform on (0.01, peak - 0.05),
# hi uniform on (peak + 0.05, pi/2 - 0.01) and tol from (1e-6, 1e-8, 1e-10, 1e-12), from random.Random(1993).
DEFAULT_RESULT = ("0x1.22d7b5d2ac09dp+0", "0x1.715609f7c746bp-4", 42, "0x1.5000000000000p-52")
PINNED_RESULTS = [
    (
        ("0x1.5abaf345656b6p-1", "0x1.86ff21b7ce04fp+0", "0x1.0c6f7a0b5ed8dp-20"),
        ("0x1.22d7b4e9787c4p+0", "0x1.715609f7c72e3p-4", 22, "0x1.9d00000000000p-48"),
    ),
    (
        ("0x1.5fc893b1add21p-2", "0x1.afa6dc1e94544p-1", "0x1.b7cdfd9d7bdbbp-34"),
        ("0x1.bd1ffdcc62cb2p-2", "0x1.715609f7c746dp-4", 40, "0x1.3000000000000p-52"),
    ),
    (
        ("0x1.475fd4765f069p-3", "0x1.bb264f8205caep-1", "0x1.b7cdfd9d7bdbbp-34"),
        ("0x1.bd1ffd636f4b2p-2", "0x1.715609f7c746dp-4", 40, "0x1.3000000000000p-52"),
    ),
    (
        ("0x1.bc4aca62df027p-1", "0x1.4d74e063bd6bbp+0", "0x1.19799812dea11p-40"),
        ("0x1.22d7b5de93619p+0", "0x1.715609f7c746dp-4", 49, "0x1.3000000000000p-52"),
    ),
    (
        ("0x1.4bbf64508f541p-4", "0x1.0890824d362bdp+0", "0x1.0c6f7a0b5ed8dp-20"),
        ("0x1.bd1ffcceebbc4p-2", "0x1.715609f7c7463p-4", 22, "0x1.d000000000000p-52"),
    ),
    (
        ("0x1.6ab2e032f4d3cp-2", "0x1.09fae8ae16c69p-1", "0x1.5798ee2308c3ap-27"),
        ("0x1.bd1ffd46f92fcp-2", "0x1.715609f7c746fp-4", 28, "0x1.1000000000000p-52"),
    ),
    (
        ("0x1.22c30f496ef1fp-2", "0x1.643af93614a57p+0", "0x1.19799812dea11p-40"),
        ("0x1.22d7b5f18110bp+0", "0x1.715609f7c746fp-4", 51, "0x1.1000000000000p-52"),
    ),
    (
        ("0x1.8663342862320p-3", "0x1.04a3293928613p+0", "0x1.0c6f7a0b5ed8dp-20"),
        ("0x1.bd1ff681946c5p-2", "0x1.715609f7c6ff8p-4", 22, "0x1.2200000000000p-46"),
    ),
    (
        ("0x1.a342c8bbe4dcdp-2", "0x1.7d00b6a61d806p+0", "0x1.19799812dea11p-40"),
        ("0x1.22d7b601713f6p+0", "0x1.715609f7c746dp-4", 51, "0x1.3000000000000p-52"),
    ),
    (
        ("0x1.1c2c05fea540bp-2", "0x1.6fd8064fc7d72p+0", "0x1.0c6f7a0b5ed8dp-20"),
        ("0x1.bd20031445a23p-2", "0x1.715609f7c715cp-4", 22, "0x1.9200000000000p-47"),
    ),
    (
        ("0x1.371ec82a468f5p-1", "0x1.5024848559259p+0", "0x1.b7cdfd9d7bdbbp-34"),
        ("0x1.22d7b608689c0p+0", "0x1.715609f7c746fp-4", 40, "0x1.1000000000000p-52"),
    ),
    (
        ("0x1.e6cc7b5fff09ap-1", "0x1.4258879dfb653p+0", "0x1.19799812dea11p-40"),
        ("0x1.22d7b5d8a7e3cp+0", "0x1.715609f7c746fp-4", 48, "0x1.1000000000000p-52"),
    ),
]


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


SKEWED = ((1.0, 0.0), (0.6, 0.8))
OVERFLOWING = ((1e300, 1e300), (1e300, -1e300))  # finite, but the overlap's terms overflow to opposite infinities


def _with(pairs: tuple, index: int, pair: tuple) -> tuple:
    """``pairs`` (ordered L1, L2, R1, R2) with the (plus, minus) pair at ``index`` replaced."""
    return pairs[:index] + (pair,) + pairs[index + 1 :]


class TestObjective:
    def test_pipeline_agrees_with_closed_form(self) -> None:
        for theta in np.linspace(0.02, math.pi / 2 - 0.02, 101):
            assert paradox_probability(float(theta)) == pytest.approx(closed_form_p4(float(theta)), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(theta=st.floats(0.0, math.pi / 2, exclude_min=True, exclude_max=True, allow_subnormal=True))
    @example(theta=0.9)
    @example(theta=0.3)
    @example(theta=THETA_STAR_LEFT)
    @example(theta=1e-200)
    @example(theta=1e-250)
    @example(theta=math.nextafter(math.pi / 2, 0.0))
    def test_equals_the_table_entry(self, theta: float) -> None:
        """The objective builds only Eq4's two bases, yet gives the table's entry bit for bit, or the same rejection."""
        try:
            table = joint_probability_table(build_hardy_configuration(theta))
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=re.escape(str(exc))):
                paradox_probability(theta)
            return
        expected = table.probability(Setting.L1, Setting.R1, Outcome.MINUS, Outcome.PLUS)
        assert paradox_probability(theta).hex() == expected.hex()

    def test_vanishes_at_pi_over_4(self) -> None:
        assert paradox_probability(math.pi / 4) < 1e-10

    def test_vanishes_in_product_state_limit(self) -> None:
        assert paradox_probability(1e-3) < 1.1e-6
        assert paradox_probability(1e-3) > 0.0

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, -1.0, 1e-250, 5e-324, math.nan, math.inf])
    def test_domain_error_at_endpoints(self, theta: float) -> None:
        with pytest.raises(ValidationError):
            paradox_probability(theta)

    def test_rejects_a_skewed_basis(self, monkeypatch: pytest.MonkeyPatch) -> None:
        theta, state, pairs = optimize_module._hardy_vectors(0.3)
        skewed = (((1.0, 0.0), (0.6, 0.8)),) + pairs[1:]  # L1 first, as in the builder's order
        monkeypatch.setattr(optimize_module, "_hardy_vectors", lambda t: (theta, state, skewed))
        with pytest.raises(ValidationError, match=r"^basis L1 is not orthonormal: plus/minus overlap magnitude 6\.000e-01$"):
            paradox_probability(0.3)

    def test_rejects_a_non_unit_state(self, monkeypatch: pytest.MonkeyPatch) -> None:
        theta, _, pairs = optimize_module._hardy_vectors(0.3)
        monkeypatch.setattr(optimize_module, "_hardy_vectors", lambda t: (theta, (1.0, 0.0, 0.0, 1.0), pairs))
        with pytest.raises(ValidationError, match=r"^StateVector squared norm 2\.0 differs from 1 beyond 1e-12$"):
            paradox_probability(0.3)

    @pytest.mark.parametrize(
        ("corrupt", "error_head"),
        [
            pytest.param(lambda s, p: (s, _with(p, 0, SKEWED)), "basis L1 ", id="skewed_L1"),
            pytest.param(lambda s, p: (s, _with(p, 2, SKEWED)), "basis R1 ", id="skewed_R1"),
            pytest.param(lambda s, p: (s, _with(p, 0, ((2.0, 0.0), p[0][1]))), "basis L1 ", id="non_unit_L1_plus"),
            pytest.param(lambda s, p: ((1.0, 0.0, 0.0, 1.0), p), "StateVector", id="non_unit_state"),
            pytest.param(lambda s, p: ((1.0, 0.0, 0.0, 1.0), _with(p, 0, SKEWED)), "StateVector", id="state_before_L1"),
            pytest.param(lambda s, p: (s, _with(_with(p, 2, SKEWED), 0, SKEWED)), "basis L1 ", id="L1_before_R1"),
            pytest.param(lambda s, p: (s, _with(p, 0, OVERFLOWING)), "basis L1 ", id="overflowing_overlap"),
            pytest.param(lambda s, p: (s, _with(p, 1, SKEWED)), None, id="skewed_L2_unread"),
            pytest.param(lambda s, p: ((s[0], -0.0, 0.0, s[3]), p), None, id="negative_zero_state"),
        ],
    )
    def test_agrees_with_the_object_path(self, monkeypatch: pytest.MonkeyPatch, corrupt, error_head) -> None:
        """Altered float vectors give the value, or the first error, of the state, bases and Born call it skips."""
        theta, state, pairs = optimize_module._hardy_vectors(0.3)
        state, pairs = corrupt(state, pairs)
        monkeypatch.setattr(optimize_module, "_hardy_vectors", lambda t: (theta, state, pairs))
        try:
            left = MeasurementBasis(*pairs[0], Setting.L1)
            right = MeasurementBasis(*pairs[2], Setting.R1)
            expected = born_joint_probability(StateVector(state), left, Outcome.MINUS, right, Outcome.PLUS)
        except ValidationError as exc:
            assert error_head is not None and str(exc).startswith(error_head)
            with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
                paradox_probability(0.3)
        else:
            assert error_head is None
            assert paradox_probability(0.3).hex() == expected.hex()

    @pytest.mark.parametrize("theta", [0.3, 1e-200, THETA_STAR_LEFT, math.nextafter(math.pi / 2, 0.0)])
    def test_a_valid_angle_skips_the_coercions(self, monkeypatch: pytest.MonkeyPatch, theta: float) -> None:
        """The objective reads the builder's float vectors as they are: no constructor coercion runs, same bits."""
        table = joint_probability_table(build_hardy_configuration(theta))
        expected = table.probability(Setting.L1, Setting.R1, Outcome.MINUS, Outcome.PLUS)

        def refuse(*args: object) -> None:
            raise AssertionError("the objective coerced a vector the builder made of finite floats")

        monkeypatch.setattr(quantum_module, "_as_vector", refuse)
        assert paradox_probability(theta).hex() == expected.hex()


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
        "theta", [0.3, 1e-200, math.nextafter(math.pi / 2, 0.0), math.pi / 4, THETA_STAR_LEFT, np.float64(0.7)]
    )
    def test_reference_curve_is_the_scalar_formula_bit_for_bit(self, theta: float) -> None:
        a, b = math.cos(theta), math.sin(theta)
        expected = (a * b * (b - a) / (1.0 - a * b)) ** 2
        got = reference_curve(theta)
        assert type(got) is float
        assert got.hex() == expected.hex()

    def test_package_code_never_calls_the_public_curve(self, monkeypatch: pytest.MonkeyPatch) -> None:
        """The benchmark tracer wraps ``reference_curve`` expecting an array, so a peakless bracket must not call it."""

        def array_only(theta: object) -> object:
            raise AssertionError("reference_curve called from package code")

        monkeypatch.setattr(optimize_module, "reference_curve", array_only)
        assert reference_grid_maximum(0.05, 0.3) == (0.3, closed_form_p4(0.3))
        assert maximize_paradox(0.05, 0.3).oracle_gap <= 1e-8

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

    def test_default_result_has_the_pinned_bits(self) -> None:
        r = maximize_paradox()
        assert (r.theta_star.hex(), r.p4_max.hex(), r.iterations, r.oracle_gap.hex()) == DEFAULT_RESULT

    @pytest.mark.parametrize("triple, expected", PINNED_RESULTS)
    def test_seeded_results_have_the_pinned_bits(self, triple: tuple[str, str, str], expected: tuple) -> None:
        r = maximize_paradox(*map(float.fromhex, triple))
        assert (r.theta_star.hex(), r.p4_max.hex(), r.iterations, r.oracle_gap.hex()) == expected

    def test_default_solve_makes_107_objective_calls(self, monkeypatch: pytest.MonkeyPatch) -> None:
        """63 scan points, 2 bracket seeds and one call per golden-section step (42)."""
        calls = []
        objective = optimize_module.paradox_probability

        def counted(theta: float) -> float:
            calls.append(theta)
            return objective(theta)

        monkeypatch.setattr(optimize_module, "paradox_probability", counted)
        assert maximize_paradox().iterations == 42
        assert len(calls) == 107

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

    def test_prescan_points_have_the_bits_of_numpy_linspace(self, monkeypatch: pytest.MonkeyPatch) -> None:
        """The 63 scan angles equal ``np.linspace(lo, hi, 65)[1:-1]`` by ``float.hex``.

        numpy computes ``i*step + lo`` too, except when ``step`` underflows to zero, which takes a
        bracket narrower than 64 subnormal spacings; every scan angle of such a bracket is rejected
        as too small for the construction, so those brackets are left out here.
        """
        seen: list[float] = []

        class ScanDone(Exception):
            pass

        def objective(theta: float) -> float:
            seen.append(theta)
            if len(seen) == 63:
                raise ScanDone
            return 0.0

        monkeypatch.setattr(optimize_module, "paradox_probability", objective)
        rng = random.Random(65)
        brackets = [DEFAULT_BRACKET, (5e-324, 1e-300), (1e-300, math.nextafter(math.pi / 2, 0.0))]
        brackets += [(0.7, math.nextafter(0.7, 1.0)), (1.5, 1.5 + 64 * math.ulp(1.5)), (0.3, 0.3 + 1e-15)]
        for _ in range(3000):
            lo = rng.choice((rng.uniform(0.0, 1.5), 10 ** rng.uniform(-320, 0)))
            width = rng.choice((rng.uniform(0.0, math.pi / 2 - lo), 10 ** rng.uniform(-17, 0) * lo))
            brackets.append((lo, min(lo + width, math.nextafter(math.pi / 2, 0.0))))
        checked = 0
        for lo, hi in brackets:
            if not 0.0 < lo < hi < math.pi / 2 or (hi - lo) / 64 == 0.0:
                continue
            seen.clear()
            with pytest.raises(ScanDone):
                maximize_paradox(lo, hi)
            assert [t.hex() for t in seen] == [float(t).hex() for t in np.linspace(lo, hi, 65)[1:-1]], (lo, hi)
            checked += 1
        assert checked > 2500

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
