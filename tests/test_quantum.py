"""Tests for states, bases, the amplitude kernel, and Born probabilities."""

from __future__ import annotations

import array
import collections
import math
from collections.abc import Callable
from types import SimpleNamespace

import numpy as np
import pytest

from hardycheck import (
    IDENTITY_TOL,
    INPUT_TOL,
    MeasurementBasis,
    Outcome,
    Setting,
    StateVector,
    ValidationError,
    born_joint_probability,
    build_hardy_configuration,
    validate_basis,
)
from hardycheck.quantum import _amplitude, _born

INV_SQRT2 = 1.0 / math.sqrt(2.0)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])


def computational_basis(label: Setting, plus_is_zero: bool = True) -> MeasurementBasis:
    plus, minus = (KET0, KET1) if plus_is_zero else (KET1, KET0)
    return MeasurementBasis(plus=plus, minus=minus, label=label)


def state_vector(value: object) -> tuple[complex, ...]:
    return StateVector(value).components


def basis_plus(value: object) -> tuple[complex, ...]:
    return MeasurementBasis(plus=value, minus=KET1, label=Setting.L1).plus


def basis_minus(value: object) -> tuple[complex, ...]:
    return MeasurementBasis(plus=KET0, minus=value, label=Setting.L1).minus


#: Each checked vector: the name its errors start with, its size, and a call that builds it from one argument.
BASIS_VECTORS = [("plus", 2, basis_plus), ("minus", 2, basis_minus)]
VECTORS = [*BASIS_VECTORS, ("StateVector", 4, state_vector)]


def born_on_computational_bases(state: object) -> float:
    left, right = computational_basis(Setting.L1), computational_basis(Setting.R1)
    return born_joint_probability(state, left, Outcome.PLUS, right, Outcome.PLUS)


def random_state(rng: np.random.Generator) -> StateVector:
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    return StateVector(raw / np.linalg.norm(raw))


def random_basis(rng: np.random.Generator, label: Setting) -> MeasurementBasis:
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return MeasurementBasis(plus=q[:, 0], minus=q[:, 1], label=label)


def test_a_sum_beyond_the_float_range_is_infinite() -> None:
    """Like an IEEE fused multiply-add, the kernel keeps an overflowed part infinite as finite products are added."""
    assert _amplitude([1e300 + 0j, 1e300 + 0j], [1e300 + 0j, 1e300 + 0j]) == complex(math.inf, 0.0)
    assert _amplitude([1e300 + 0j, 1e300 + 0j], [-1e300 + 0j, 1e300 + 0j]) == complex(-math.inf, 0.0)


def random_complex_vector(rng: np.random.Generator) -> tuple[complex, ...]:
    return tuple(complex(z) for z in rng.normal(size=4) + 1j * rng.normal(size=4))


class EqualToEverything:
    """Equal to every object and hashed like ``Outcome.PLUS``; records the other side of each ``__eq__`` call."""

    def __init__(self) -> None:
        self.eq_calls: list[object] = []

    def __eq__(self, other: object) -> bool:
        self.eq_calls.append(other)
        return True

    def __hash__(self) -> int:
        return hash(Outcome.PLUS)


class TestAmplitudeKernel:
    def test_self_overlap_is_one(self) -> None:
        e0 = (1 + 0j, 0j, 0j, 0j)
        assert _amplitude(e0, e0) == 1.0

    def test_orthogonality(self) -> None:
        assert _amplitude((1 + 0j, 0j, 0j, 0j), (0j, 1 + 0j, 0j, 0j)) == 0.0

    def test_conjugate_linear_in_first_argument(self) -> None:
        rng = np.random.default_rng(7)
        x, y = random_complex_vector(rng), random_complex_vector(rng)
        ix, iy = tuple(1j * c for c in x), tuple(1j * c for c in y)
        assert _amplitude(ix, y) == pytest.approx(-1j * _amplitude(x, y))
        assert _amplitude(x, iy) == pytest.approx(1j * _amplitude(x, y))

    def test_self_amplitude_real_nonnegative(self) -> None:
        x = random_complex_vector(np.random.default_rng(11))
        value = _amplitude(x, x)
        assert value.imag == pytest.approx(0.0, abs=1e-12)
        assert value.real >= 0.0

    def test_born_projector_layout_is_left_slow(self) -> None:
        """The projector's component (i, j) sits at index 2*i + j: the left factor varies slowest."""
        left, right = (2 + 0j, 3 + 0j), (5 + 0j, 7 + 0j)
        for index, expected in enumerate([10.0, 14.0, 15.0, 21.0]):
            unit = tuple(1 + 0j if k == index else 0j for k in range(4))
            assert _born(left, right, unit) == expected**2


class TestBornRule:
    def test_definite_product_state(self) -> None:
        state = StateVector(np.array([1, 0, 0, 0], dtype=complex))
        left = computational_basis(Setting.L1)
        right = computational_basis(Setting.R1)
        assert born_joint_probability(state, left, Outcome.PLUS, right, Outcome.PLUS) == pytest.approx(1.0)
        assert born_joint_probability(state, left, Outcome.MINUS, right, Outcome.PLUS) == pytest.approx(0.0)

    def test_bell_state_correlations(self) -> None:
        state = StateVector(np.array([INV_SQRT2, 0, 0, INV_SQRT2], dtype=complex))
        left = computational_basis(Setting.L1)
        right = computational_basis(Setting.R1)
        assert born_joint_probability(state, left, Outcome.PLUS, right, Outcome.PLUS) == pytest.approx(0.5)
        assert born_joint_probability(state, left, Outcome.MINUS, right, Outcome.MINUS) == pytest.approx(0.5)
        assert born_joint_probability(state, left, Outcome.PLUS, right, Outcome.MINUS) == pytest.approx(0.0)

    def test_hardy_configuration_zero_entry(self) -> None:
        """The (L2-, R2+) joint event of the built configuration is forbidden."""
        config = build_hardy_configuration(math.pi / 6)
        p = born_joint_probability(
            config.state, config.basis(Setting.L2), Outcome.MINUS, config.basis(Setting.R2), Outcome.PLUS
        )
        assert p < 1e-10

    def test_outcome_probabilities_sum_to_one(self) -> None:
        rng = np.random.default_rng(20240812)
        for _ in range(50):
            state = random_state(rng)
            left = random_basis(rng, Setting.L1)
            right = random_basis(rng, Setting.R2)
            total = sum(
                born_joint_probability(state, left, ol, right, orr)
                for ol in (Outcome.PLUS, Outcome.MINUS)
                for orr in (Outcome.PLUS, Outcome.MINUS)
            )
            assert total == pytest.approx(1.0, abs=IDENTITY_TOL)

    def test_global_phase_invariance(self) -> None:
        rng = np.random.default_rng(99)
        state = random_state(rng)
        left = random_basis(rng, Setting.L1)
        right = random_basis(rng, Setting.R1)
        for phase in (0.3, 1.7, -2.2):
            rotated = StateVector(np.exp(1j * phase) * np.asarray(state.components))
            for ol in (Outcome.PLUS, Outcome.MINUS):
                for orr in (Outcome.PLUS, Outcome.MINUS):
                    p0 = born_joint_probability(state, left, ol, right, orr)
                    p1 = born_joint_probability(rotated, left, ol, right, orr)
                    assert p1 == pytest.approx(p0, abs=IDENTITY_TOL)

    @pytest.mark.parametrize("container", [list, tuple, np.array], ids=["list", "tuple", "ndarray"])
    def test_state_must_be_a_state_vector(self, container: Callable[[list], object]) -> None:
        """A raw vector, even a unit one, is not read: a state is checked once, when its StateVector is built."""
        basis = computational_basis(Setting.L1)
        raw = container([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValidationError, match="^state must be a StateVector, got "):
            born_joint_probability(raw, basis, Outcome.PLUS, computational_basis(Setting.R1), Outcome.PLUS)

    @pytest.mark.parametrize("outcome", ["+", "-", None, 1, pytest.param(EqualToEverything(), id="equal_to_everything")])
    def test_outcome_must_be_an_outcome(self, outcome: object) -> None:
        """Only an Outcome member picks a basis vector; a "+" or "-" string, None, an int or a look-alike raises.

        The look-alike compares equal to everything and hashes like ``Outcome.PLUS``: members are told apart by
        identity, so its ``__eq__`` is never called.
        """
        config = build_hardy_configuration(0.5)
        left, right = config.basis(Setting.L1), config.basis(Setting.R1)
        with pytest.raises(ValidationError, match="^outcome must be an Outcome, got "):
            left.vector_for(outcome)  # type: ignore[arg-type]
        with pytest.raises(ValidationError, match="^outcome must be an Outcome, got "):
            born_joint_probability(config.state, left, outcome, right, Outcome.PLUS)  # type: ignore[arg-type]
        with pytest.raises(ValidationError, match="^outcome must be an Outcome, got "):
            born_joint_probability(config.state, left, Outcome.MINUS, right, outcome)  # type: ignore[arg-type]
        assert getattr(outcome, "eq_calls", []) == []

    def test_rejects_non_orthonormal_basis(self) -> None:
        state = StateVector(np.array([1, 0, 0, 0], dtype=complex))
        degenerate = MeasurementBasis(plus=KET0, minus=KET0, label=Setting.L1)
        with pytest.raises(ValidationError, match="orthonormal"):
            born_joint_probability(state, degenerate, Outcome.PLUS, computational_basis(Setting.R1), Outcome.PLUS)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_orthonormal_basis_rejected_on_every_call(self, side: str) -> None:
        state = StateVector(np.array([1, 0, 0, 0], dtype=complex))
        skewed = MeasurementBasis(plus=np.array([1.0, 1e-8]), minus=KET1, label=Setting.L2)
        other = computational_basis(Setting.R1 if side == "left" else Setting.L1)
        left, right = (skewed, other) if side == "left" else (other, skewed)
        message = "^basis L2 is not orthonormal: plus/minus overlap magnitude 1.000e-08$"
        for _ in range(2):  # no call may count as having validated the basis for the next one
            with pytest.raises(ValidationError, match=message):
                born_joint_probability(state, left, Outcome.PLUS, right, Outcome.PLUS)


class TestValidateBasis:
    def test_computational_basis_passes(self) -> None:
        report = validate_basis(computational_basis(Setting.L1))
        assert report.passed
        assert report.failures == ()

    def test_repeated_vector_fails_orthogonality(self) -> None:
        report = validate_basis(MeasurementBasis(plus=KET0, minus=KET0, label=Setting.L2))
        assert not report.passed
        assert report.overlap == pytest.approx(1.0)

    def test_unnormalized_vector_fails(self) -> None:
        report = validate_basis(MeasurementBasis(plus=2 * KET0, minus=KET1, label=Setting.R1))
        assert not report.passed
        assert report.plus_norm_error == pytest.approx(3.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_outside_open_positive_range_rejected(self, tol: float) -> None:
        repeated = MeasurementBasis(plus=KET0, minus=KET0, label=Setting.L2)
        with pytest.raises(ValidationError, match="tol must be positive and finite"):
            validate_basis(repeated, tol=tol)

    def test_a_deviation_equal_to_the_tolerance_passes(self) -> None:
        basis = build_hardy_configuration(math.pi / 6).basis(Setting.L1)
        report = validate_basis(basis)
        err = max(report.plus_norm_error, report.minus_norm_error, report.overlap)
        assert err == 2.0**-52
        assert validate_basis(basis, tol=err).passed
        assert not validate_basis(basis, tol=math.nextafter(err, 0.0)).passed

    @pytest.mark.parametrize(
        "plus, minus, tol, broken",
        [
            ([2, 0], [2, 2], 3.0, ["minus", "plus/minus"]),  # deviations 3, 7, 4: plus's 3 is on tol
            ([2, 1], [0, 2], 3.0, ["plus"]),  # deviations 4, 3, 2: minus's 3 is on tol
            ([2, 1], [0, 2], 2.0, ["plus", "minus"]),  # and here the overlap's 2 is
        ],
    )
    def test_a_deviation_on_the_tolerance_is_not_listed_beside_a_broken_one(self, plus, minus, tol, broken) -> None:
        report = validate_basis(MeasurementBasis(plus=plus, minus=minus, label=Setting.R1), tol=tol)
        assert [failure.split()[0] for failure in report.failures] == broken

    def test_tolerance_controls_verdict(self) -> None:
        skewed = MeasurementBasis(plus=np.array([1.0, 1e-8]), minus=np.array([0.0, 1.0]), label=Setting.R2)
        assert not validate_basis(skewed, tol=1e-12).passed
        assert validate_basis(skewed, tol=1e-6).passed

    def test_overlap_beyond_float_range_reads_as_infinite(self) -> None:
        # Finite components whose overlap magnitude, 1.69e308 * sqrt(2), exceeds the largest float.
        huge = MeasurementBasis(plus=[1.3e154, 0], minus=[1.3e154 * (1 + 1j), 0], label=Setting.L1)
        report = validate_basis(huge)
        assert report.overlap == math.inf
        assert not report.passed
        assert "plus/minus overlap magnitude inf" in report.failures
        state = StateVector(np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(ValidationError, match="^basis L1 is not orthonormal: "):
            born_joint_probability(state, huge, Outcome.PLUS, computational_basis(Setting.R1), Outcome.PLUS)

    def test_overlap_terms_overflowing_to_opposite_infinities_read_as_infinite(self) -> None:
        # Each term, 1e300 * 1e300, overflows, and their inf - inf would be a nan that no failure lists.
        huge = MeasurementBasis(plus=[1e300, 1e300], minus=[1e300, -1e300], label=Setting.L1)
        report = validate_basis(huge)
        assert report.overlap == math.inf
        assert "plus/minus overlap magnitude inf" in report.failures

    def test_deviations_are_not_a_field(self) -> None:
        basis = MeasurementBasis(plus=2 * KET0, minus=KET1, label=Setting.R1)
        assert vars(basis)["_report"] is validate_basis(basis, INPUT_TOL)
        assert MeasurementBasis._fields == ("plus", "minus", "label")
        assert "_report" not in repr(basis)
        assert type(basis).__eq__ is object.__eq__  # identity, so no stored value takes part in eq

    def test_replaced_vector_reports_its_own_deviations(self) -> None:
        basis = computational_basis(Setting.L1)
        unnormalized = basis.__replace__(plus=2 * KET0)
        report = validate_basis(unnormalized)
        assert (report.plus_norm_error, report.minus_norm_error, report.overlap) == (3.0, 0.0, 0.0)
        assert validate_basis(basis).passed
        assert validate_basis(unnormalized.__replace__(plus=KET0)).passed


class TestTypeInvariants:
    def test_state_vector_rejects_non_unit(self) -> None:
        with pytest.raises(ValidationError):
            StateVector(np.array([1.1, 0, 0, 0], dtype=complex))

    def test_state_vector_rejects_nan(self) -> None:
        with pytest.raises(ValidationError):
            StateVector(np.array([np.nan, 0, 0, 0], dtype=complex))

    @pytest.mark.parametrize(("what", "make"), [(what, make) for what, _, make in BASIS_VECTORS])
    def test_basis_vector_rejects_infinity(self, what: str, make: Callable[[object], object]) -> None:
        with pytest.raises(ValidationError, match=f"^{what} components must be finite$"):
            make(np.array([np.inf, 0.0]))

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(("what", "size", "make"), VECTORS)
    def test_one_non_finite_part_of_one_component_rejected(
        self, what: str, size: int, make: Callable[[object], object], value: float, part: str
    ) -> None:
        components = [complex(0.5, 0.5)] * size
        components[1] = complex(value, 0.5) if part == "real" else complex(0.5, value)
        with pytest.raises(ValidationError, match=f"^{what} components must be finite$"):
            make(components)

    @pytest.mark.parametrize(("what", "make"), [(what, make) for what, _, make in BASIS_VECTORS])
    def test_basis_vector_rejects_three_components(self, what: str, make: Callable[[object], object]) -> None:
        with pytest.raises(ValidationError, match=f"^{what} must have exactly 2 components, got shape \\(3,\\)$"):
            make(np.array([1.0, 0.0, 0.0]))

    def test_basis_label_must_be_a_setting(self) -> None:
        with pytest.raises(ValidationError, match="label"):
            MeasurementBasis(plus=KET0, minus=KET1, label="L1")  # type: ignore[arg-type]

    @pytest.mark.parametrize("container", [list, tuple])
    @pytest.mark.parametrize(
        ("make", "components"),
        [(state_vector, [1, 0, 0, 0]), (basis_plus, [0.6, 0.8j]), (basis_minus, [0.8j, 0.6])],
    )
    def test_components_are_an_immutable_tuple_of_complex(
        self, make: Callable[[object], object], components: list, container: type
    ) -> None:
        built = make(container(components))
        assert type(built) is tuple
        assert all(type(c) is complex for c in built)
        assert built == tuple(complex(c) for c in components)
        with pytest.raises(TypeError):
            built[0] = 0.0  # type: ignore[index]

    @pytest.mark.parametrize("source", ["ndarray", "strided_view", "array_protocol"])
    @pytest.mark.parametrize(("make", "size"), [(make, size) for _, size, make in VECTORS])
    def test_components_never_alias_the_callers_buffer(
        self, make: Callable[[object], object], size: int, source: str
    ) -> None:
        caller = np.zeros(3 * size, dtype=complex)[::3] if source == "strided_view" else np.zeros(size, dtype=complex)
        caller[0] = 1.0
        argument: object = caller
        if source == "array_protocol":

            class OwnBuffer:
                def __array__(self, dtype: object = None, copy: object = None) -> np.ndarray:
                    return caller

            argument = OwnBuffer()
        built = make(argument)
        expected = tuple(caller.tolist())
        caller[:] = 0.5j
        assert type(built) is tuple
        assert built == expected
        assert caller.flags.writeable

    @pytest.mark.parametrize(
        "source",
        [range(2), collections.deque([0, 1]), array.array("d", [0.0, 1.0]), bytearray(b"\x00\x01")],
        ids=["range", "deque", "array_module", "bytearray"],
    )
    @pytest.mark.parametrize("make", [basis_plus, basis_minus])
    def test_any_sequence_of_numbers_is_accepted(self, make: Callable[[object], object], source: object) -> None:
        assert make(source) == (0j, 1 + 0j)

    @pytest.mark.parametrize(("what", "size", "make"), VECTORS)
    def test_two_dimensional_array_rejected(self, what: str, size: int, make: Callable[[object], object]) -> None:
        message = f"^{what} must have exactly {size} components, got shape \\(2, {size}\\)$"
        with pytest.raises(ValidationError, match=message):
            make(np.zeros((2, size)))

    @pytest.mark.parametrize(
        "malformed",
        [
            pytest.param(lambda n: dict(enumerate([1.0] + [0.0] * (n - 1))), id="dict"),
            pytest.param(lambda n: "ab" * (n // 2), id="string"),
            pytest.param(lambda n: b"ab" * (n // 2), id="bytes"),
            pytest.param(lambda n: [1.0, "x"] + [0.0] * (n - 2), id="string_component"),
            pytest.param(lambda n: ["1"] + ["0"] * (n - 1), id="numeric_strings"),
            pytest.param(lambda n: [None] * n, id="none_components"),
            pytest.param(lambda n: [1.0, [0.0]] + [0.0] * (n - 2), id="ragged"),
            pytest.param(lambda n: SimpleNamespace(components=[[0.0] * n] * n), id="nested_components"),
            pytest.param(lambda n: [object()] * n, id="objects"),
            pytest.param(lambda n: [10**400] + [0] * (n - 1), id="int_beyond_float"),
            pytest.param(lambda n: iter([1.0] + [0.0] * (n - 1)), id="iterator"),
            pytest.param(lambda n: {1.0, 0.0}, id="set"),
            pytest.param(lambda n: 1.0, id="scalar"),
            pytest.param(lambda n: None, id="none"),
            pytest.param(lambda n: np.float64(1.0), id="numpy_scalar"),
        ],
    )
    @pytest.mark.parametrize(
        ("what", "size", "make"),
        [*VECTORS, ("state", 4, born_on_computational_bases)],
    )
    def test_malformed_input_raises_validation_error_naming_the_vector(
        self, what: str, size: int, make: Callable[[object], object], malformed: Callable[[int], object]
    ) -> None:
        with pytest.raises(ValidationError, match=f"^{what} "):
            make(malformed(size))

    def test_basis_vector_lookup(self) -> None:
        basis = computational_basis(Setting.L1)
        assert basis.vector_for(Outcome.PLUS) is basis.plus
        assert basis.vector_for(Outcome.MINUS) is basis.minus
        assert (basis.plus, basis.minus) == ((1 + 0j, 0j), (0j, 1 + 0j))

    def test_setting_values_in_declared_order(self) -> None:
        assert [s.value for s in Setting] == ["L1", "L2", "R1", "R2"]

    def test_members_print_as_their_values(self) -> None:
        members = [*Setting, *Outcome]
        assert [(str(m), f"{m}", format(m)) for m in members] == [(m.value,) * 3 for m in members]
        assert [m.value for m in members] == ["L1", "L2", "R1", "R2", "+", "-"]
