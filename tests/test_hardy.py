"""Tests for the configuration builder, probability tables, prediction checks,
no-signalling, and the ket-label map."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from collections import Counter
from collections.abc import Callable, Iterator, Mapping
from fractions import Fraction
from types import MappingProxyType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardycheck import (
    OUTCOME_PAIRS,
    OUTCOMES,
    SETTING_PAIRS,
    HardyConfiguration,
    JointProbabilityTable,
    MeasurementBasis,
    NoSignallingReport,
    Outcome,
    PredictionReport,
    Setting,
    StateVector,
    ValidationError,
    build_hardy_configuration,
    from_hardy_notation,
    hardy_constraint_set,
    joint_probability_table,
    maximize_paradox,
    no_signalling_check,
    paradox_probability,
    quantum,
    render_report,
    to_hardy_notation,
    verify_hardy_predictions,
)

# Frozen from a direct Born-rule evaluation of the construction at theta = pi/6
# (cross-checked against the closed form (a*b*(b-a)/(1-a*b))**2).
P4_AT_PI_6 = 0.07814065897005947

THETA_GRID = np.linspace(0.01, math.pi / 2 - 0.01, 50)

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS


KEY_L2_R2_PP = ((Setting.L2, Setting.R2), (PLUS, PLUS))


class MinimalMapping(Mapping):
    """Only the three abstract methods of ``Mapping`` over a dict."""

    def __init__(self, data: dict) -> None:
        self._data = data

    def __getitem__(self, key: object) -> object:
        return self._data[key]

    def __iter__(self) -> Iterator[object]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)


class ListKeysMapping(MinimalMapping):
    """A mapping whose ``keys()`` is a list, not a set-like view."""

    def keys(self) -> list[object]:  # type: ignore[override]
        return list(self._data)


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

    @pytest.mark.parametrize("theta", [1e-200, 0.3, math.pi / 4, 1.2, math.nextafter(math.pi / 2, 0.0)])
    def test_basis_vectors_are_pairs_of_complex(self, theta: float) -> None:
        for basis in build_hardy_configuration(theta).bases:
            for vec in (basis.plus, basis.minus):
                assert type(vec) is tuple and len(vec) == 2 and all(type(c) is complex for c in vec)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.1, 2.0, math.nan])
    def test_rejects_angles_outside_open_interval(self, theta: float) -> None:
        with pytest.raises(ValidationError):
            build_hardy_configuration(theta)

    @pytest.mark.parametrize("theta", [math.nan, 0.0, math.pi / 2, math.inf, -1.0])
    def test_configuration_rejects_an_angle_outside_open_interval(self, theta: float) -> None:
        config = build_hardy_configuration(0.5)
        with pytest.raises(ValidationError, match=r"^theta must lie strictly inside \(0, pi/2\), got "):
            HardyConfiguration(state=config.state, bases=config.bases, theta=theta)

    def test_configuration_stores_its_angle_as_a_float(self) -> None:
        config = build_hardy_configuration(0.5)
        theta = HardyConfiguration(state=config.state, bases=config.bases, theta=np.float64(0.5)).theta
        assert type(theta) is float and theta == 0.5

    def test_mislabelled_bases_rejected(self) -> None:
        config = build_hardy_configuration(0.5)
        swapped = (config.bases[1], config.bases[0]) + config.bases[2:]
        with pytest.raises(ValidationError, match="labelled"):
            HardyConfiguration(state=config.state, bases=swapped, theta=config.theta)

    def test_the_bases_cannot_be_edited_after_the_configuration_is_built(self) -> None:
        """The configuration keeps its own tuple: editing the list it was given changes neither it nor its table."""
        built = build_hardy_configuration(0.5)
        given = list(built.bases)
        config = HardyConfiguration(state=built.state, bases=given, theta=built.theta)
        given[0] = built.bases[2]  # the R1 basis into the L1 slot, after the labels were checked
        assert [basis.label for basis in config.bases] == [Setting.L1, Setting.L2, Setting.R1, Setting.R2]
        with pytest.raises(TypeError):
            config.bases[0] = built.bases[2]  # type: ignore[index]
        assert render_report(joint_probability_table(config), "json") == render_report(
            joint_probability_table(built), "json"
        )

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
            assert sum(table.entries[(pair, op)] for op in OUTCOME_PAIRS) == pytest.approx(1.0, abs=1e-12)

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

    def test_the_entries_cannot_be_edited_after_the_table_is_built(self) -> None:
        """The table keeps a read-only copy of its checked entries, so a verdict cannot be edited in."""
        table = joint_probability_table(build_hardy_configuration(0.5))
        before = render_report(verify_hardy_predictions(table), "json")
        key = ((Setting.L1, Setting.R1), (MINUS, PLUS))
        with pytest.raises(TypeError):
            table.entries[key] = 7.0  # type: ignore[index]
        assert table.entries[key] < 1.0 and render_report(verify_hardy_predictions(table), "json") == before

    @pytest.mark.parametrize("wrap", [dict, MappingProxyType, MinimalMapping, ListKeysMapping], ids=lambda w: w.__name__)
    def test_accepts_its_sixteen_entries_as_any_mapping(self, wrap: Callable[[dict], object]) -> None:
        """A mapping proxy, a minimal ``Mapping`` subclass and one whose ``keys()`` is a list are read alike."""
        built = joint_probability_table(build_hardy_configuration(0.7))
        table = JointProbabilityTable(wrap(dict(built.entries)))
        assert dict(table.entries) == dict(built.entries)
        assert render_report(table, "json") == render_report(built, "json")

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (lambda e: e.popitem(), r"^table must contain exactly the 16 setting/outcome pair entries$"),
            (lambda e: e.update({"17th": 0.0}), r"^table must contain exactly the 16 setting/outcome pair entries$"),
            (lambda e: e.update({KEY_L2_R2_PP: math.nan}), r"^entry \(\(<Setting.L2: 'L2'>, .+\)\) = nan outside \[0, 1\]$"),
            (lambda e: e.update({KEY_L2_R2_PP: math.inf}), r"^entry \(\(<Setting.L2: 'L2'>, .+\)\) = inf outside \[0, 1\]$"),
            (lambda e: e.update({KEY_L2_R2_PP: -math.inf}), r"^entry \(\(<Setting.L2: 'L2'>, .+\)\) = -inf outside \[0, 1\]$"),
        ],
        ids=["15_keys", "17_keys", "nan", "plus_inf", "minus_inf"],
    )
    @pytest.mark.parametrize("wrap", [dict, MappingProxyType, MinimalMapping], ids=lambda w: w.__name__)
    def test_rejects_a_wrong_key_set_or_a_non_finite_entry(
        self, edit: Callable[[dict], object], message: str, wrap: Callable[[dict], object]
    ) -> None:
        entries = dict(joint_probability_table(build_hardy_configuration(0.7)).entries)
        edit(entries)
        with pytest.raises(ValidationError, match=message):
            JointProbabilityTable(wrap(entries))

    @pytest.mark.parametrize(
        "lookup",
        [
            lambda t: t.probability(Setting.R1, Setting.L1, MINUS, PLUS),
            lambda t: t.probability("L1", Setting.R1, MINUS, PLUS),
            lambda t: t.probability(Setting.L1, Setting.R1, "-", PLUS),
            lambda t: t.probability(Setting.L1, Setting.R1, MINUS, []),
            lambda t: t.left_marginal(Setting.L1, MINUS, Setting.L2),
            lambda t: t.left_marginal([], MINUS, Setting.R1),
            lambda t: t.left_marginal(Setting.L1, 0, Setting.R1),
        ],
        ids=["swapped_pair", "str_setting", "str_outcome", "unhashable", "marginal_two_lefts", "marginal_unhashable", "marginal_int"],
    )
    def test_lookup_of_a_non_entry_names_the_arguments(self, lookup: Callable[[JointProbabilityTable], float]) -> None:
        table = joint_probability_table(build_hardy_configuration(0.7))
        with pytest.raises(ValidationError, match="^no table entry for left_setting=.+, right_setting=.+, left_outcome=.+, right_outcome="):
            lookup(table)

    def test_every_entry_is_the_fraction_rounded_fma_at_2400_angles(self, monkeypatch: pytest.MonkeyPatch) -> None:
        """Each entry is ``abs(fma(l1*r1, b, (l0*r0)*a))**2``, the fma evaluated through ``Fraction``.

        The state is ``(a, 0, 0, b)`` and every basis vector ``(x0, x1)`` is real, so the amplitude
        has two nonzero terms: the first product rounded once, the second fused into it. The
        angles run log-spaced from 1e-200, uniformly across (0, pi/2), and log-spaced up to
        ``nextafter(pi/2, 0)``. Both ways of computing a fused step run: ``math.fsum`` over exact
        halves, and the exact-integer fallback outside its bounds.
        """
        counts = Counter()

        def counted_fma(a: float, b: float, c: float) -> float:
            counts["fused"] += 1
            return fma(a, b, c)

        def counted_fsum(terms: tuple[float, ...]) -> float:
            total = math.fsum(terms)
            counts["fsum"] += 1
            return total

        fma = quantum._fma
        monkeypatch.setattr(quantum, "_fma", counted_fma)
        monkeypatch.setattr(quantum, "math", SimpleNamespace(**{**vars(math), "fsum": counted_fsum}))
        n = 800
        thetas = {1e-200, math.pi / 4, math.nextafter(math.pi / 2, 0.0)}
        for i in range(n):
            thetas.add(10 ** (-200 + 199 * i / (n - 1)))
            thetas.add((i + 0.5) * (math.pi / 2) / n)
            thetas.add(math.pi / 2 - 10 ** (-15.6 + 14.6 * i / (n - 1)))
        thetas = {t for t in thetas if 0.0 < t < math.pi / 2}
        assert len(thetas) >= 2000
        for theta in thetas:
            config = build_hardy_configuration(theta)
            table = joint_probability_table(config)
            a, _, _, b = (c.real for c in config.state.components)
            for sp in SETTING_PAIRS:
                for op in OUTCOME_PAIRS:
                    left = config.basis(sp[0]).vector_for(op[0])
                    right = config.basis(sp[1]).vector_for(op[1])
                    assert not any(c.imag for c in left + right + config.state.components)
                    (l0, l1), (r0, r1) = (c.real for c in left), (c.real for c in right)
                    amplitude = float(Fraction(l1 * r1) * Fraction(b) + Fraction((l0 * r0) * a))
                    assert table.probability(*sp, *op).hex() == (abs(amplitude) ** 2).hex(), (theta, sp, op)
        assert counts["fsum"] > 0 and counts["fused"] - counts["fsum"] > 0, counts

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

    def test_all_hold_is_a_derived_last_field(self) -> None:
        report = verify_hardy_predictions(joint_probability_table(build_hardy_configuration(0.3)))
        failed = dataclasses.replace(report, verdicts=(True, True, True, False))
        assert report.all_hold is True and failed.all_hold is False
        with pytest.raises(TypeError):
            PredictionReport(*dataclasses.astuple(report))  # all_hold is not a constructor argument
        names = [f.name for f in dataclasses.fields(PredictionReport)]
        assert names[-1] == "all_hold" and list(json.loads(render_report(failed, "json"))) == names

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

    def test_a_value_equal_to_the_tolerance_fails_its_verdict(self) -> None:
        # A zero holds below tol and the positivity above it, so a tol equal to the value fails either verdict.
        table = joint_probability_table(build_hardy_configuration(math.pi / 6))
        report = verify_hardy_predictions(table)
        p1, p4 = report.p1_zero, report.p4_positive
        assert 0.0 < p1 < 1e-32 and 0.07 < p4 < 0.08  # 5.75e-33 and 0.0781
        assert verify_hardy_predictions(table, tol=p1).verdicts[0] is False
        assert verify_hardy_predictions(table, tol=math.nextafter(p1, 1.0)).verdicts[0] is True
        assert verify_hardy_predictions(table, tol=p4).verdicts[3] is False
        assert verify_hardy_predictions(table, tol=math.nextafter(p4, 0.0)).verdicts[3] is True

    def test_every_layer_reads_the_four_events_from_one_statement(self, monkeypatch: pytest.MonkeyPatch) -> None:
        import hardycheck
        from hardycheck import Constraint, ConstraintSet

        zeros, paradox = quantum._HARDY_ZEROS, quantum._HARDY_PARADOX
        events = hardy_constraint_set()
        assert [(c.label, c.settings, c.outcomes) for c in events.zeros] == list(zeros)
        assert [(c.label, c.settings, c.outcomes) for c in events.positivity] == [paradox]
        assert events is hardy_constraint_set() and events == ConstraintSet(
            zeros=(
                Constraint("Eq1", (Setting.L2, Setting.R2), (MINUS, PLUS)),
                Constraint("Eq2", (Setting.L2, Setting.R1), (PLUS, PLUS)),
                Constraint("Eq3", (Setting.L1, Setting.R2), (MINUS, MINUS)),
            ),
            positivity=(Constraint("Eq4", (Setting.L1, Setting.R1), (MINUS, PLUS)),),
        )
        (left, _, left_outcome), (right, _, right_outcome) = hardycheck.optimize._PARADOX_EVENT
        assert ("Eq4", (left, right), (OUTCOMES[left_outcome], OUTCOMES[right_outcome])) == paradox
        for module in (hardycheck.counterfactuals, hardycheck.hardy, hardycheck.render):
            assert (module._HARDY_ZEROS, module._HARDY_PARADOX) == (zeros, paradox)
        # Reversed rows reverse the zeros that the check reads and the lines of the text report.
        table = joint_probability_table(build_hardy_configuration(math.pi / 6))
        report = verify_hardy_predictions(table)
        for module in (hardycheck.hardy, hardycheck.render):
            monkeypatch.setattr(module, "_HARDY_ZEROS", zeros[::-1])
        reversed_report = verify_hardy_predictions(table)
        assert (reversed_report.p1_zero, reversed_report.p3_zero) == (report.p3_zero, report.p1_zero) != (0.0, 0.0)
        assert reversed_report.p1_zero != report.p1_zero
        lines = render_report(report, "text").decode().splitlines()
        assert [line.split("=")[0] for line in lines[1:5]] == [
            "  Eq3  P(L1-, R2- | L1,R2) ",
            "  Eq2  P(L2+, R1+ | L2,R1) ",
            "  Eq1  P(L2-, R2+ | L2,R2) ",
            "  Eq4  P(L1-, R1+ | L1,R1) ",
        ]


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

    def test_the_deviations_cannot_be_edited_after_the_report_is_built(self) -> None:
        """The report is frozen and so are its deviations: a read-only copy of the mapping it was given."""
        given = {"P(L1+) R1 vs R2": 0.0}
        report = NoSignallingReport(True, 0.0, 1e-12, given)
        given["P(L1+) R1 vs R2"] = 0.5
        report_bytes = render_report(report, "json")
        with pytest.raises(TypeError):
            report.deviations["P(L1+) R1 vs R2"] = 0.5
        assert dict(report.deviations) == {"P(L1+) R1 vs R2": 0.0} and render_report(report, "json") == report_bytes
        failed = dataclasses.replace(report, passed=False)
        assert not failed.passed and failed.deviations == report.deviations
        assert report_bytes == b'{\n  "passed": true,\n  "max_deviation": 0,\n  "tol": 9.9999999999999998e-13,\n  "deviations": {\n    "P(L1+) R1 vs R2": 0\n  }\n}\n'

    @pytest.mark.parametrize("seed", range(5))
    def test_deviations_are_the_marginal_differences_bit_for_bit(self, seed: int) -> None:
        """Labels, their order and every deviation, against marginals summed in a loop.

        Every entry of the table differs, so a comparison that reads a wrong key shows.
        """
        rng = np.random.default_rng(seed)
        table = table_from_rows({pair: tuple(rng.dirichlet(np.ones(4)).tolist()) for pair in SETTING_PAIRS})
        e = table.entries
        expected = {}
        for own in (Setting.L1, Setting.L2):
            for o in (PLUS, MINUS):
                m1, m2 = (sum(e[((own, rem), (o, x))] for x in (PLUS, MINUS)) for rem in (Setting.R1, Setting.R2))
                expected[f"P({own.value}{o.value}) R1 vs R2"] = abs(m1 - m2)
        for own in (Setting.R1, Setting.R2):
            for o in (PLUS, MINUS):
                m1, m2 = (sum(e[((rem, own), (x, o))] for x in (PLUS, MINUS)) for rem in (Setting.L1, Setting.L2))
                expected[f"P({own.value}{o.value}) L1 vs L2"] = abs(m1 - m2)
        report = no_signalling_check(table)
        assert list(report.deviations) == list(expected)
        assert [v.hex() for v in report.deviations.values()] == [v.hex() for v in expected.values()]
        assert report.max_deviation == max(expected.values())


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

    @pytest.mark.parametrize("label", ["z9", ["c1"], None, 3], ids=["unknown_str", "list", "none", "int"])
    def test_bad_label_raises_validation_error_naming_label(self, label: object) -> None:
        with pytest.raises(ValidationError) as info:
            from_hardy_notation(label)
        assert isinstance(info.value, ValueError)  # the documented contract
        assert str(info.value) == f"label must be one of the eight ket labels, got {label!r}"

    @pytest.mark.parametrize(
        "setting, outcome", [(Setting.L1, "+"), ("L1", PLUS), ([], PLUS)], ids=["str_outcome", "str_setting", "unhashable"]
    )
    def test_non_enum_arguments_rejected_by_name(self, setting: object, outcome: object) -> None:
        with pytest.raises(ValidationError) as info:
            to_hardy_notation(setting, outcome)
        assert repr(setting) in str(info.value)
        assert repr(outcome) in str(info.value)

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


# Polynomials in g with integer coefficients, as lists from the constant term up.
def _poly_add(p: list[int], q: list[int]) -> list[int]:
    return [a + b for a, b in zip(p + [0] * (len(q) - len(p)), q + [0] * (len(p) - len(q)))]


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_eval(p: list[int], g: Fraction) -> Fraction:
    return sum((c * g**k for k, c in enumerate(p)), Fraction(0))


def _monomial(k: int, c: int = 1) -> list[int]:
    return [0] * k + [c]


# The unnormalized (plus, minus) pairs of build_hardy_configuration's docstring, components in Z[g]. The state
# cos(theta)|00> + sin(theta)|11> is sin(theta) * (g^2|00> + |11>) with g^2 = cot(theta).
EXACT_BASES = {
    Setting.L1: ((_monomial(3), [1]), ([1], _monomial(3, -1))),
    Setting.L2: ((_monomial(1, -1), [1]), ([1], _monomial(1))),
    Setting.R1: (([1], _monomial(3)), (_monomial(3), [-1])),
    Setting.R2: (([1], _monomial(1, -1)), (_monomial(1), [1])),
}


def _exact_event(settings: tuple[Setting, Setting], outcomes: tuple[Outcome, Outcome]) -> tuple[list[int], list[int]]:
    """(numerator, denominator) of the event's Born probability: ``(g^2 u0 v0 + u1 v1)^2 / ((1+g^4) |u|^2 |v|^2)``."""
    (u0, u1), (v0, v1) = (EXACT_BASES[s][OUTCOMES.index(o)] for s, o in zip(settings, outcomes))
    amplitude = _poly_add(_poly_mul(_monomial(2), _poly_mul(u0, v0)), _poly_mul(u1, v1))
    norms = [_poly_add(_poly_mul(x0, x0), _poly_mul(x1, x1)) for x0, x1 in ((u0, u1), (v0, v1))]
    denominator = _poly_mul(_poly_add([1], _monomial(4)), _poly_mul(*norms))
    return _poly_mul(amplitude, amplitude), denominator


class TestExactCertificate:
    """The construction over Z[g], exactly: the zeros hold at every angle, and Eq4 is the reference curve."""

    def test_zero_amplitudes_are_the_zero_polynomial(self) -> None:
        zeros = hardy_constraint_set().zeros
        assert [c.label for c in zeros] == ["Eq1", "Eq2", "Eq3"]
        for constraint in zeros:
            numerator, denominator = _exact_event(constraint.settings, constraint.outcomes)
            assert _poly_trim(numerator) == [], constraint.label
            assert _poly_trim(denominator) != []

    def test_eq4_is_the_reference_curve_as_a_rational_function(self) -> None:
        (eq4,) = hardy_constraint_set().positivity
        numerator, denominator = _exact_event(eq4.settings, eq4.outcomes)
        one_minus_g4, one_plus_g4, one_plus_g6 = [1, 0, 0, 0, -1], [1, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 1]
        # g^4 (1 - g^4)^2 / ((1 + g^4) (1 + g^6)^2)
        assert _poly_trim(numerator) == _poly_mul(_monomial(4), _poly_mul(one_minus_g4, one_minus_g4))
        assert _poly_trim(denominator) == _poly_mul(one_plus_g4, _poly_mul(one_plus_g6, one_plus_g6))
        # equals g^4 (1 - g^2)^2 / ((1 + g^4) (1 - g^2 + g^4)^2), because 1 + g^6 = (1 + g^2)(1 - g^2 + g^4)
        one_minus_g2, cubic_factor = [1, 0, -1], [1, 0, -1, 0, 1]
        curve_num = _poly_mul(_monomial(4), _poly_mul(one_minus_g2, one_minus_g2))
        curve_den = _poly_mul(one_plus_g4, _poly_mul(cubic_factor, cubic_factor))
        assert _poly_trim(_poly_mul(numerator, curve_den)) == _poly_trim(_poly_mul(curve_num, denominator))

    @pytest.mark.parametrize("g", [Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3)], ids=str)
    def test_objective_is_within_1e_15_of_the_exact_value(self, g: Fraction) -> None:
        (eq4,) = hardy_constraint_set().positivity
        numerator, denominator = _exact_event(eq4.settings, eq4.outcomes)
        exact = _poly_eval(numerator, g) / _poly_eval(denominator, g)
        theta = math.atan2(1, g * g)  # cot(theta) = g^2
        assert abs(paradox_probability(theta) - exact) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(theta=st.floats(0.0, math.pi / 2, exclude_min=True, exclude_max=True, allow_subnormal=True))
    @example(theta=1.5707951670618023)  # the widest error seen over 13,507 angles: 8.9e-16, on (L2,R2)(+,-)
    @example(theta=1e-200)
    def test_every_entry_is_within_2e_15_of_the_exact_value_at_the_float_g(self, theta: float) -> None:
        """Each float entry against the exact construction at G, the float ``sqrt(cos/sin)`` read as a fraction."""
        try:
            table = joint_probability_table(build_hardy_configuration(theta))
        except ValidationError:
            return
        g = Fraction(math.sqrt(math.cos(theta) / math.sin(theta)))
        for settings_pair in SETTING_PAIRS:
            for outcome_pair in OUTCOME_PAIRS:
                numerator, denominator = _exact_event(settings_pair, outcome_pair)
                exact = _poly_eval(numerator, g) / _poly_eval(denominator, g)
                entry = table.probability(*settings_pair, *outcome_pair)
                assert abs(entry - exact) <= 2e-15, (theta, settings_pair, outcome_pair)


#: sha256 of the bytes below, recorded before the table path around the Born kernel was trimmed; the same on 3.10 to 3.13.
BORN_LAYER_DIGEST = "32a1a595edc1cd1278f36590a933c6787326b912a4fae31ee18f3435d59c0e04"


def test_born_layer_bytes_match_the_recorded_digest() -> None:
    """Table, verify and no-signalling JSON at 3,000 seeded angles and four optimize reports hash as recorded.

    The angles are drawn as the benchmark's ``sweep`` draws them: uniform on (0, pi/2), and one in ten
    log-uniform toward 1e-200 or toward pi/2 (down to the float just below it). CI runs this on every
    supported Python, so the rounding of the whole layer is pinned there, not only at the table goldens.
    """
    rng = random.Random(20261020)
    half_pi_gap = math.pi / 2 - math.nextafter(math.pi / 2, 0.0)
    thetas = [1e-200, math.nextafter(math.pi / 2, 0.0)]
    while len(thetas) < 3000:
        u = rng.random()
        kind = rng.randrange(20)
        if kind == 0:
            thetas.append(10 ** (-200 + u * 199))
        elif kind == 1:
            thetas.append(min(math.pi / 2 - half_pi_gap * 10 ** (u * math.log10(0.1 / half_pi_gap)), thetas[1]))
        elif 0.0 < (theta := u * math.pi / 2):
            thetas.append(theta)
    digest = hashlib.sha256()
    for theta in thetas:
        table = joint_probability_table(build_hardy_configuration(theta))
        for report in (table, verify_hardy_predictions(table), no_signalling_check(table)):
            digest.update(render_report(report, "json"))
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        digest.update(render_report(maximize_paradox(tol=tol), "json"))
    assert digest.hexdigest() == BORN_LAYER_DIGEST
