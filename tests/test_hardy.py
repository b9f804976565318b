"""Tests for the configuration builder, probability tables, prediction checks,
no-signalling, and the ket-label map."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hardycheck import (
    OUTCOME_PAIRS,
    SETTING_PAIRS,
    JointProbabilityTable,
    MeasurementBasis,
    Outcome,
    Setting,
    StateVector,
    ValidationError,
    build_hardy_configuration,
    from_hardy_notation,
    joint_probability_table,
    no_signalling_check,
    render_report,
    to_hardy_notation,
    verify_hardy_predictions,
)

# Frozen from a direct Born-rule evaluation of the construction at theta = pi/6
# (cross-checked against the closed form (a*b*(b-a)/(1-a*b))**2).
P4_AT_PI_6 = 0.07814065897005947

THETA_GRID = np.linspace(0.01, math.pi / 2 - 0.01, 50)

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS


def uniform_row() -> tuple[float, float, float, float]:
    return (0.25, 0.25, 0.25, 0.25)


def table_from_rows(rows: dict) -> JointProbabilityTable:
    entries = {}
    for pair in SETTING_PAIRS:
        for outcome_pair, p in zip(OUTCOME_PAIRS, rows[pair]):
            entries[(pair, outcome_pair)] = p
    return JointProbabilityTable(entries)


class TestConfigurationBuilder:
    def test_three_zeros_hold_across_grid(self) -> None:
        for theta in THETA_GRID:
            table = joint_probability_table(build_hardy_configuration(float(theta)))
            assert table.probability(Setting.L2, Setting.R2, MINUS, PLUS) < 1e-10
            assert table.probability(Setting.L2, Setting.R1, PLUS, PLUS) < 1e-10
            assert table.probability(Setting.L1, Setting.R2, MINUS, MINUS) < 1e-10

    def test_schmidt_coefficients(self) -> None:
        theta = 0.8
        config = build_hardy_configuration(theta)
        expected = [math.cos(theta), 0.0, 0.0, math.sin(theta)]
        assert np.allclose(config.state.components, expected, atol=1e-15)
        assert config.theta == theta

    def test_bases_are_orthonormal(self) -> None:
        from hardycheck import validate_basis

        config = build_hardy_configuration(0.3)
        for setting in Setting:
            assert validate_basis(config.basis(setting)).passed

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.1, 2.0, math.nan])
    def test_rejects_angles_outside_open_interval(self, theta: float) -> None:
        with pytest.raises(ValidationError):
            build_hardy_configuration(theta)

    def test_paradox_probability_vanishes_at_maximal_entanglement(self) -> None:
        table = joint_probability_table(build_hardy_configuration(math.pi / 4))
        assert table.probability(Setting.L1, Setting.R1, MINUS, PLUS) < 1e-10

    def test_paradox_probability_vanishes_toward_product_state(self) -> None:
        values = [
            joint_probability_table(build_hardy_configuration(theta)).probability(
                Setting.L1, Setting.R1, MINUS, PLUS
            )
            for theta in (0.1, 0.01, 0.001)
        ]
        assert values[0] > values[1] > values[2] > 0.0
        assert values[2] < 1.1e-6


class TestJointProbabilityTable:
    def test_sixteen_entries_with_unit_rows(self) -> None:
        table = joint_probability_table(build_hardy_configuration(0.7))
        assert len(table.entries) == 16
        for pair in SETTING_PAIRS:
            assert sum(table.row(*pair).values()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized_row(self) -> None:
        rows = {pair: uniform_row() for pair in SETTING_PAIRS}
        rows[(Setting.L1, Setting.R1)] = (0.2, 0.2, 0.2, 0.2)
        with pytest.raises(ValidationError, match="sums"):
            table_from_rows(rows)

    def test_rejects_out_of_range_entry(self) -> None:
        rows = {pair: uniform_row() for pair in SETTING_PAIRS}
        rows[(Setting.L1, Setting.R1)] = (1.2, -0.2, 0.0, 0.0)
        with pytest.raises(ValidationError, match="outside"):
            table_from_rows(rows)

    def test_rejects_missing_entries(self) -> None:
        with pytest.raises(ValidationError, match="16"):
            JointProbabilityTable({})

    def test_serialization_order_is_fixed(self) -> None:
        table = joint_probability_table(build_hardy_configuration(0.5))
        records = table.records()
        assert [r["setting_pair"] for r in records[:4]] == ["L1,R1"] * 4
        assert [r["outcome_pair"] for r in records[:4]] == ["++", "+-", "-+", "--"]
        assert [r["setting_pair"] for r in records[::4]] == ["L1,R1", "L1,R2", "L2,R1", "L2,R2"]

    def test_csv_has_header_and_16_rows_with_17_digit_floats(self) -> None:
        table = joint_probability_table(build_hardy_configuration(math.pi / 6))
        text = render_report(table, "csv").decode("utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "setting_pair,outcome_pair,probability"
        assert len(lines) == 17
        p4_line = [line for line in lines if line.startswith('"L1,R1",-+')][0]
        assert p4_line.split(",")[-1] == format(P4_AT_PI_6, ".17g")

    def test_serialization_is_deterministic(self) -> None:
        table = joint_probability_table(build_hardy_configuration(0.9))
        again = joint_probability_table(build_hardy_configuration(0.9))
        assert render_report(table, "csv") == render_report(again, "csv")
        assert render_report(table, "json") == render_report(again, "json")


class TestVerifyPredictions:
    def test_all_four_verdicts_at_pi_over_6(self) -> None:
        table = joint_probability_table(build_hardy_configuration(math.pi / 6))
        report = verify_hardy_predictions(table, tol=1e-10)
        assert report.verdicts == (True, True, True, True)
        assert report.all_hold
        assert report.p4_positive == pytest.approx(P4_AT_PI_6, rel=1e-12)

    def test_left_minus_marginal_reported(self) -> None:
        # Independent closed form for the construction: a^2 b^2 / (a^2 - a b + b^2).
        theta = math.pi / 6
        a, b = math.cos(theta), math.sin(theta)
        expected = a * a * b * b / (a * a - a * b + b * b)
        report = verify_hardy_predictions(joint_probability_table(build_hardy_configuration(theta)))
        assert report.left_minus_marginal_under_L1 == pytest.approx(expected, rel=1e-12)
        assert 0.0 < report.left_minus_marginal_under_L1 < 1.0

    def test_product_state_table_fails_only_positivity(self) -> None:
        """Definite outcomes aligned with the zeros: verdicts 1-3 hold, verdict 4 cannot."""
        state = StateVector(np.array([1, 0, 0, 0], dtype=complex))
        ket0 = np.array([1.0, 0.0])
        ket1 = np.array([0.0, 1.0])
        bases = (
            MeasurementBasis(plus=ket0, minus=ket1, label=Setting.L1),
            MeasurementBasis(plus=ket0, minus=ket1, label=Setting.L2),
            MeasurementBasis(plus=ket1, minus=ket0, label=Setting.R1),
            MeasurementBasis(plus=ket1, minus=ket0, label=Setting.R2),
        )
        from hardycheck import HardyConfiguration

        config = HardyConfiguration(state=state, bases=bases, theta=0.1)
        report = verify_hardy_predictions(joint_probability_table(config))
        assert report.verdicts[:3] == (True, True, True)
        assert report.verdicts[3] is False

    def test_perturbed_zero_flips_first_verdict(self) -> None:
        rows = {pair: uniform_row() for pair in SETTING_PAIRS}
        rows[(Setting.L2, Setting.R2)] = (0.45, 0.25, 0.05, 0.25)
        report = verify_hardy_predictions(table_from_rows(rows), tol=1e-10)
        assert report.p1_zero == pytest.approx(0.05)
        assert report.verdicts[0] is False
        assert report.verdicts[3] is True

    def test_zero_verdicts_monotone_in_tol(self) -> None:
        table = joint_probability_table(build_hardy_configuration(math.pi / 6))
        tols = (1e-12, 1e-10, 1e-6, 1e-2)
        previous = (False, False, False)
        for tol in tols:
            current = verify_hardy_predictions(table, tol=tol).verdicts[:3]
            for before, after in zip(previous, current):
                assert not (before and not after)
            previous = current

    def test_rejects_nonpositive_tol(self) -> None:
        table = joint_probability_table(build_hardy_configuration(0.4))
        with pytest.raises(ValidationError):
            verify_hardy_predictions(table, tol=0.0)


class TestNoSignalling:
    def test_passes_for_built_configurations(self) -> None:
        for theta in THETA_GRID[::7]:
            report = no_signalling_check(joint_probability_table(build_hardy_configuration(float(theta))))
            assert report.passed
            assert report.max_deviation < 1e-12

    def test_detects_constructed_violation(self) -> None:
        rows = {
            (Setting.L1, Setting.R1): (0.5, 0.5, 0.0, 0.0),  # P(L+|L1,R1) = 1
            (Setting.L1, Setting.R2): (0.0, 0.0, 0.5, 0.5),  # P(L+|L1,R2) = 0
            (Setting.L2, Setting.R1): uniform_row(),
            (Setting.L2, Setting.R2): uniform_row(),
        }
        report = no_signalling_check(table_from_rows(rows))
        assert not report.passed
        assert report.max_deviation == pytest.approx(1.0)

    def test_reports_eight_marginal_comparisons(self) -> None:
        report = no_signalling_check(joint_probability_table(build_hardy_configuration(0.6)))
        assert len(report.deviations) == 8


class TestHardyNotation:
    EXPECTED = {
        (Setting.L1, PLUS): "c1",
        (Setting.L1, MINUS): "d1",
        (Setting.L2, PLUS): "v1",
        (Setting.L2, MINUS): "u1",
        (Setting.R1, PLUS): "d2",
        (Setting.R1, MINUS): "c2",
        (Setting.R2, PLUS): "u2",
        (Setting.R2, MINUS): "v2",
    }

    def test_exact_label_map(self) -> None:
        for (setting, outcome), label in self.EXPECTED.items():
            assert to_hardy_notation(setting, outcome) == label

    def test_round_trip_all_eight(self) -> None:
        for setting in Setting:
            for outcome in (PLUS, MINUS):
                assert from_hardy_notation(to_hardy_notation(setting, outcome)) == (setting, outcome)

    def test_bijection(self) -> None:
        labels = {to_hardy_notation(s, o) for s in Setting for o in (PLUS, MINUS)}
        assert labels == {"c1", "d1", "v1", "u1", "d2", "c2", "u2", "v2"}

    def test_unknown_label_rejected(self) -> None:
        with pytest.raises(ValueError):
            from_hardy_notation("z9")

    def test_zero_events_translate_to_expected_label_pairs(self) -> None:
        from hardycheck import hardy_constraint_set

        zeros = {c.label: c for c in hardy_constraint_set().zeros}
        # Eq1 forbids (L2-, R2+); as (R2+, L2-) it reads (u2, u1).
        assert to_hardy_notation(Setting.R2, PLUS) == "u2"
        assert to_hardy_notation(Setting.L2, MINUS) == "u1"
        assert zeros["Eq1"].outcomes == (MINUS, PLUS)
        # Eq2 forbids (L2+, R1+), which reads (v1, d2).
        assert to_hardy_notation(Setting.L2, PLUS) == "v1"
        assert to_hardy_notation(Setting.R1, PLUS) == "d2"
        assert zeros["Eq2"].outcomes == (PLUS, PLUS)
        # Eq3 forbids (L1-, R2-), which reads (d1, v2).
        assert to_hardy_notation(Setting.L1, MINUS) == "d1"
        assert to_hardy_notation(Setting.R2, MINUS) == "v2"
        assert zeros["Eq3"].outcomes == (MINUS, MINUS)
