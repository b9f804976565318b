"""Property tests over the whole input domain: angles, tolerances, general states and bases, and CLI argument lists.

Each property states what every input must give: a correct result, or one
of the package's own errors. An uncaught exception fails the property.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import hardycheck
from hardycheck import (
    IDENTITY_TOL,
    INPUT_TOL,
    INSTANCE_FIELDS,
    LEFT_SETTINGS,
    OUTCOME_PAIRS,
    OUTCOMES,
    RIGHT_SETTINGS,
    SETTING_PAIRS,
    ZERO_TOL,
    Constraint,
    ConstraintSet,
    ConvergenceError,
    MeasurementBasis,
    Outcome,
    Setting,
    StateVector,
    UsageError,
    ValidationError,
    born_joint_probability,
    build_hardy_configuration,
    check_property1,
    check_property2,
    enumerate_instances,
    enumerate_strategies,
    evaluate_sr,
    hardy_constraint_set,
    hardy_lhv_feasibility,
    joint_probability_table,
    locality_violation_report,
    maximize_paradox,
    no_signalling_check,
    realizes,
    render_report,
    satisfies_zeros,
    strategy_realizes,
    strategy_satisfies,
    to_json_text,
    validate_basis,
    verify_hardy_predictions,
)
from hardycheck.cli import build_parser, main
from hardycheck.counterfactuals import _select, _sr_table
from hardycheck.hardy import _hardy_vectors
from hardycheck.quantum import _amplitude, _as_vector, _basis_deviations, _born, _fma, _norm_squared

P4_MAX_EXACT = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
HALF_PI_BELOW = math.nextafter(math.pi / 2, 0.0)
PEAKS = (0.5 * math.asin(3.0 - math.sqrt(5.0)), math.pi / 2 - 0.5 * math.asin(3.0 - math.sqrt(5.0)))

angles = st.floats(min_value=0.0, max_value=math.pi / 2, exclude_min=True, exclude_max=True, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(theta=angles)
@example(theta=1e-300)
@example(theta=1e-206)
@example(theta=5e-324)
@example(theta=2.2250738585072014e-308)
@example(theta=HALF_PI_BELOW)
def test_every_angle_builds_a_valid_table_or_is_rejected(theta: float) -> None:
    try:
        table = joint_probability_table(build_hardy_configuration(theta))
    except ValidationError:
        return
    report = verify_hardy_predictions(table)
    assert max(report.p1_zero, report.p2_zero, report.p3_zero) <= ZERO_TOL
    a, b = math.cos(theta), math.sin(theta)
    reference = (a * b * (b - a) / (1.0 - a * b)) ** 2
    assert abs(report.p4_positive - reference) <= max(1e-14, 1e-9 * reference)
    assert no_signalling_check(table).passed


@settings(max_examples=40, deadline=None)
@given(tol=st.floats(min_value=0.0, exclude_min=True, allow_subnormal=True))
@example(tol=math.inf)
@example(tol=1.0)
@example(tol=1e-16)
@example(tol=5e-324)
def test_every_tolerance_finds_the_optimum_or_raises(tol: float) -> None:
    try:
        report = maximize_paradox(tol=tol)
    except ConvergenceError:
        return
    assert abs(report.p4_max - P4_MAX_EXACT) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(
    peak=st.sampled_from(PEAKS),
    below=st.floats(0.0, 0.4),
    above=st.floats(0.0, 0.4),
    tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
)
def test_oracle_gap_is_the_distance_to_the_true_maximum(peak: float, below: float, above: float, tol: float) -> None:
    lo, hi = peak - below, peak + above
    assume(lo < hi)
    report = maximize_paradox(lo, hi, tol)
    assert report.oracle_gap == abs(report.p4_max - P4_MAX_EXACT)
    assert report.p4_max <= P4_MAX_EXACT + 1e-15


parts = st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=True)
phases = st.floats(min_value=-math.pi, max_value=math.pi)


@st.composite
def unit_states(draw: st.DrawFn) -> StateVector:
    raw = np.array([complex(draw(parts), draw(parts)) for _ in range(4)])
    norm = np.linalg.norm(raw)
    assume(norm > 1e-3)
    return StateVector(raw / norm)


@st.composite
def phased_bases(draw: st.DrawFn, label: Setting) -> MeasurementBasis:
    """Every orthonormal qubit basis: a rotation by ``t``, a relative phase and a global phase on each vector."""
    t = draw(st.floats(min_value=0.0, max_value=math.pi / 2))
    relative, plus_phase, minus_phase = (np.exp(1j * draw(phases)) for _ in range(3))
    plus = plus_phase * np.array([math.cos(t), relative * math.sin(t)])
    minus = minus_phase * np.array([-math.sin(t) / relative, math.cos(t)])
    return MeasurementBasis(plus=plus, minus=minus, label=label)


def fraction_chain(xs: object, ys: object) -> complex:
    """``sum_k conj(x_k) * y_k`` as the kernel defines it, evaluated through ``Fraction``.

    Each part runs over its real products in index order: the real part over
    ``re(x)*re(y)`` and ``im(x)*im(y)``, the imaginary part over ``re(x)*im(y)`` and
    ``-im(x)*re(y)``. A product with a zero factor is skipped; every other one is added
    to the running sum exactly and the sum rounded (``float(Fraction)`` rounds
    correctly), so the first product is rounded once and each later one is fused.
    """
    parts = [0.0, 0.0]
    for x, y in zip(xs, ys):
        products = ((x.real, y.real), (x.imag, y.imag)), ((x.real, y.imag), (-x.imag, y.real))
        for i, pairs in enumerate(products):
            for a, b in pairs:
                if a != 0 and b != 0:
                    parts[i] = float(Fraction(parts[i]) + Fraction(a) * Fraction(b))
    return complex(*parts)


DBL_MAX = sys.float_info.max
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
fma_factors = st.one_of(finite_floats, st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1100, 1023)))
fma_addends = st.one_of(fma_factors, st.sampled_from([math.inf, -math.inf, DBL_MAX, -DBL_MAX, 5e-324, -5e-324]))


def _x(text: str) -> float:
    return float.fromhex(text)


@settings(max_examples=400, deadline=None)
@given(a=fma_factors, b=fma_factors, c=fma_addends, cancel=st.booleans())
# On each side of the fast path's bounds: |a*b| just above and just below 2**-960 and 2**995, |a| at 2**1000.
@example(a=_x("0x1.0000000000001p-480"), b=_x("0x1.0000000000001p-480"), c=_x("-0x1.0000000000002p-960"), cancel=False)
@example(a=_x("0x1.fffffffffffffp-481"), b=_x("0x1.fffffffffffffp-481"), c=_x("-0x1.fffffffffffffp-961"), cancel=False)
@example(a=_x("0x1.fffffffffffffp496"), b=_x("0x1.fffffffffffffp497"), c=_x("-0x1.fffffffffffffp994"), cancel=False)
@example(a=_x("0x1.0000000000001p497"), b=_x("0x1.fffffffffffffp497"), c=_x("-0x1p995"), cancel=False)
@example(a=_x("0x1.fffffffffffffp1000"), b=_x("0x1.0000000000001p-20"), c=1.0, cancel=False)
# |a*b| near 2**-1000, where the low partial product would round: only the integer path gets it right.
@example(a=_x("-0x1.452fac850320ap-435"), b=_x("-0x1.6dd97448b35cfp-565"), c=_x("-0x1.d0b93218d5a06p-1000"), cancel=False)
# Subnormal addends on the fast path.
@example(a=1.5, b=_x("0x1.0000000000001p-1"), c=5e-324, cancel=False)
@example(a=_x("0x1.0000000000001p-480"), b=_x("0x1.0000000000001p-480"), c=_x("-0x0.0000000000003p-1022"), cancel=False)
# A sum past the float range: fsum overflows, and the integer path returns the signed infinity.
@example(a=2.0**497, b=2.0**497, c=DBL_MAX, cancel=False)
@example(a=-(2.0**497), b=2.0**497, c=-DBL_MAX, cancel=False)
# Exact cancellation gives +0.0; an infinite addend is returned as it is.
@example(a=3.0, b=5.0, c=-15.0, cancel=False)
@example(a=-3.0, b=5.0, c=15.0, cancel=False)
@example(a=1.0, b=2.0, c=math.inf, cancel=False)
@example(a=1e300, b=1e300, c=-math.inf, cancel=False)
def test_fma_is_the_fraction_rounded_sum_bit_for_bit(a: float, b: float, c: float, cancel: bool) -> None:
    """``_fma(a, b, c)`` is ``a*b + c`` evaluated through ``Fraction`` and rounded once, on either path.

    With ``cancel`` the addend is ``-(a*b)`` rounded, so the result is the product's own rounding error.
    """
    assert math.fsum([1.0, 2**-53, 2**-106]) == 1 + 2**-52  # fsum rounds the exact sum once, not term by term
    if cancel and math.isfinite(a * b):
        c = -(a * b)
    if math.isinf(c):
        expected = c
    else:
        exact = Fraction(a) * Fraction(b) + Fraction(c)
        try:
            expected = float(exact)
        except OverflowError:
            expected = math.inf if exact > 0 else -math.inf
    assert _fma(a, b, c).hex() == expected.hex()


edge_parts = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0])
vector_parts = st.one_of(parts, edge_parts)
complexes = st.builds(complex, vector_parts, vector_parts)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(complexes, complexes), max_size=6))
@example(pairs=[(complex(5e-324, 0.0), complex(5e-324, 0.0)), (complex(1.0, -0.0), complex(-1e-310, 0.0))])
@example(pairs=[(complex(-0.0, 1.0), complex(1.0, -0.0)), (complex(0.0, -0.0), complex(1.0, 1.0))])
def test_amplitude_kernel_is_the_fraction_chain_bit_for_bit(pairs: list[tuple[complex, complex]]) -> None:
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    got, expected = _amplitude(xs, ys), fraction_chain(xs, ys)
    assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex())


@settings(max_examples=150, deadline=None)
@given(state=unit_states(), left=phased_bases(Setting.L1), right=phased_bases(Setting.R2))
def test_born_rule_is_the_fraction_chain_bit_for_bit(
    state: StateVector, left: MeasurementBasis, right: MeasurementBasis
) -> None:
    for ol, orr in OUTCOME_PAIRS:
        projector = [x * y for x in left.vector_for(ol) for y in right.vector_for(orr)]
        expected = abs(fraction_chain(projector, state.components)) ** 2
        assert born_joint_probability(state, left, ol, right, orr).hex() == expected.hex()


@pytest.mark.parametrize("theta", [1e-200, 0.3, math.pi / 4, 1.2, HALF_PI_BELOW])
def test_hardy_born_entries_are_the_fraction_chain_bit_for_bit(theta: float) -> None:
    """Across the angle range, down to 1e-200 and up to the float just below pi/2."""
    config = build_hardy_configuration(theta)
    for left_setting, right_setting in SETTING_PAIRS:
        left, right = config.basis(left_setting), config.basis(right_setting)
        for ol, orr in OUTCOME_PAIRS:
            projector = [x * y for x in left.vector_for(ol) for y in right.vector_for(orr)]
            expected = abs(fraction_chain(projector, config.state.components)) ** 2
            assert born_joint_probability(config.state, left, ol, right, orr).hex() == expected.hex()


def deviations_as_formerly_computed(basis: MeasurementBasis) -> tuple[float, float, float]:
    """The orthonormality deviations as ``validate_basis`` computed them on each call, before bases stored them."""
    plus, minus = basis.plus, basis.minus
    plus_err = abs(sum([c * c.conjugate() for c in plus]).real - 1.0)
    minus_err = abs(sum([c * c.conjugate() for c in minus]).real - 1.0)
    (p0, p1), (m0, m1) = plus, minus
    try:
        overlap = abs(p0.conjugate() * m0 + p1.conjugate() * m1)
    except OverflowError:  # that formula raised here; a basis now reads the overlap as infinite
        overlap = math.inf
    # That formula gave nan when the two terms overflow to opposite infinities; a basis reads that as infinite too.
    return plus_err, minus_err, math.inf if math.isnan(overlap) else overlap


huge_parts = st.sampled_from([1.3e154, -1.3e154, 1e200, 1.7976931348623157e308, -1e300])
basis_parts = st.one_of(parts, edge_parts, huge_parts, st.floats(allow_nan=False, allow_infinity=False))
basis_complexes = st.builds(complex, basis_parts, basis_parts)


@st.composite
def general_bases(draw: st.DrawFn) -> MeasurementBasis:
    """Unit and non-unit vectors, orthonormal and skewed pairs, subnormal and huge finite parts."""
    kind = draw(st.sampled_from(["orthonormal", "skewed", "arbitrary"]))
    if kind == "arbitrary":
        plus, minus = [draw(basis_complexes) for _ in range(2)], [draw(basis_complexes) for _ in range(2)]
        return MeasurementBasis(plus=plus, minus=minus, label=Setting.R1)
    basis = draw(phased_bases(Setting.R1))
    if kind == "orthonormal":
        return basis
    (m0, m1), skew = basis.minus, draw(basis_complexes)
    return MeasurementBasis(plus=basis.plus, minus=[m0 + skew, m1], label=Setting.R1)


@settings(max_examples=400, deadline=None)
@given(basis=general_bases())
@example(basis=MeasurementBasis(plus=[1.3e154, 0], minus=[1.3e154 * (1 + 1j), 0], label=Setting.L1))
@example(basis=MeasurementBasis(plus=[5e-324, 1.0], minus=[1.0, -5e-324], label=Setting.L2))
def test_basis_report_has_the_bits_of_the_per_call_formula(basis: MeasurementBasis) -> None:
    plus_err, minus_err, overlap = deviations_as_formerly_computed(basis)
    # INPUT_TOL as a float, a numpy.float64 and a Fraction reads the report the basis stored when built.
    for given_tol in (1e-300, IDENTITY_TOL, INPUT_TOL, np.float64(INPUT_TOL), Fraction(1, 10**9), 1e-3, 1.0, 1e300):
        tol = float(given_tol)
        failures = []
        if plus_err > tol:
            failures.append(f"plus vector squared norm off by {plus_err:.3e}")
        if minus_err > tol:
            failures.append(f"minus vector squared norm off by {minus_err:.3e}")
        if overlap > tol:
            failures.append(f"plus/minus overlap magnitude {overlap:.3e}")
        report = validate_basis(basis, given_tol)
        got = (report.passed, report.plus_norm_error, report.minus_norm_error, report.overlap, report.tol, report.failures)
        expected = (not failures, plus_err, minus_err, overlap, tol, tuple(failures))
        assert [x.hex() if type(x) is float else x for x in got] == [
            x.hex() if type(x) is float else x for x in expected
        ]


float_parts = st.one_of(st.floats(allow_nan=False, allow_infinity=False), edge_parts, huge_parts)
float_pairs = st.tuples(float_parts, float_parts)


def _bits(call: object, *args: object) -> object:
    """The result of ``call(*args)`` as ``float.hex`` text, or the type and text of what it raised."""
    try:
        result = call(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return tuple(x.hex() for x in result) if isinstance(result, tuple) else result.hex()


@settings(max_examples=400, deadline=None)
@given(plus=float_pairs, minus=float_pairs, right=float_pairs, state=st.tuples(*[float_parts] * 4))
@example(plus=(1e300, 1e300), minus=(1e300, -1e300), right=(1e308, -0.0), state=(1e308, 5e-324, -0.0, 1.0))
@example(plus=(-0.0, 1.0), minus=(1.0, -0.0), right=(-5e-324, 1.0), state=(-0.0, -0.0, 1.0, -0.0))
# A projector product that overflows reaches the fma chain as inf, which has no integer ratio: both raise alike.
@example(plus=(1.0, 1e300), minus=(1.0, 0.0), right=(1.0, 1e300), state=(1.0, 0.0, 0.0, 1.0))
def test_float_vectors_give_the_bits_of_their_complex_coercions(
    plus: tuple[float, float], minus: tuple[float, float], right: tuple[float, float], state: tuple[float, ...]
) -> None:
    """The objective's float path: each shared check and the kernel read a float as its ``complex`` coercion."""
    cplus, cminus, cright = (_as_vector(v, 2, what) for v, what in ((plus, "plus"), (minus, "minus"), (right, "plus")))
    cstate = _as_vector(state, 4, "StateVector")
    for vec, cvec in ((plus, cplus), (minus, cminus), (right, cright), (state, cstate)):
        assert _bits(_norm_squared, vec) == _bits(_norm_squared, cvec)
    assert _bits(_basis_deviations, plus, minus) == _bits(_basis_deviations, cplus, cminus)
    assert _bits(_born, plus, right, state) == _bits(_born, cplus, cright, cstate)


def deviations_on_norm_squared(plus: tuple, minus: tuple) -> tuple[float, float, float]:
    """The orthonormality deviations with each squared norm read from ``_norm_squared``, the one routine that defines it."""
    plus_err, minus_err = abs(_norm_squared(plus) - 1.0), abs(_norm_squared(minus) - 1.0)
    (p0, p1), (m0, m1) = plus, minus
    try:
        overlap = abs(p0.conjugate() * m0 + p1.conjugate() * m1)
    except OverflowError:
        overlap = math.inf
    return plus_err, minus_err, math.inf if math.isnan(overlap) else overlap


vector_pairs = st.one_of(float_pairs, st.tuples(basis_complexes, basis_complexes))


@settings(max_examples=400, deadline=None)
@given(plus=vector_pairs, minus=vector_pairs)
@example(plus=(1e300, 1e300), minus=(1e300, -1e300))
@example(plus=(-0.0, 1.0), minus=(1.0, -0.0))
@example(plus=(1.0, 1e300), minus=(1.0, 0.0))
@example(plus=(1.3e154 + 0j, 0j), minus=(1.3e154 * (1 + 1j), 0j))
@example(plus=(5e-324 + 0j, 1 + 0j), minus=(1 + 0j, -5e-324 + 0j))
@example(plus=(1.7976931348623157e308, 1.0), minus=(-1e300j, 1e300j))
# Generic parts, where summing the real squares before the imaginary ones would round differently.
@example(plus=(0.251 - 0.869j, -0.974 + 0.675j), minus=(0.758 - 0.805j, -0.728 - 0.566j))
def test_basis_deviations_have_the_bits_of_the_norm_squared_formula(plus: tuple, minus: tuple) -> None:
    """Float and complex 2-vectors, overflowing squares and overlaps among them: the same bits or the same error."""
    assert _bits(_basis_deviations, plus, minus) == _bits(deviations_on_norm_squared, plus, minus)


def hardy_vectors_by_sixteen_divisions(theta: float) -> tuple | None:
    """``_hardy_vectors``'s construction with each basis component divided on its own; ``None`` where ``g**3`` overflows."""
    a, b = math.cos(theta), math.sin(theta)
    g = math.sqrt(a / b)
    try:
        g3 = g**3
    except OverflowError:
        return None
    if math.isinf(g3):
        return None
    n1, n3 = math.hypot(1.0, g), math.hypot(1.0, g3)
    pairs = (
        ((g3 / n3, 1.0 / n3), (1.0 / n3, -g3 / n3)),
        ((-g / n1, 1.0 / n1), (1.0 / n1, g / n1)),
        ((1.0 / n3, g3 / n3), (g3 / n3, -1.0 / n3)),
        ((1.0 / n1, -g / n1), (g / n1, 1.0 / n1)),
    )
    return theta, (a, 0.0, 0.0, b), pairs


@settings(max_examples=300, deadline=None)
@given(theta=angles)
@example(theta=5e-324)
@example(theta=1e-310)
@example(theta=2.2250738585072014e-308)
@example(theta=1e-206)
@example(theta=1e-200)
@example(theta=HALF_PI_BELOW)
def test_hardy_vectors_have_the_bits_of_sixteen_divisions(theta: float) -> None:
    """Each quotient is formed once and negated where needed: ``-x/n`` is ``-(x/n)`` exactly (``hex`` keeps the sign)."""
    expected = hardy_vectors_by_sixteen_divisions(theta)
    if expected is None:
        with pytest.raises(ValidationError, match=r"^theta=.+ is too small for the basis construction in double precision$"):
            _hardy_vectors(theta)
        return

    def hexes(vectors: tuple) -> list[str]:
        checked, state, pairs = vectors
        return [x.hex() for x in (checked, *state, *(x for pair in pairs for vec in pair for x in vec))]

    assert hexes(_hardy_vectors(theta)) == hexes(expected)


@settings(max_examples=300, deadline=None)
@given(theta=angles)
@example(theta=5e-324)
@example(theta=1e-310)
@example(theta=2.2250738585072014e-308)
@example(theta=1e-200)
@example(theta=HALF_PI_BELOW)
def test_the_builder_gives_finite_floats_a_unit_state_and_orthonormal_pairs(theta: float) -> None:
    """What the optimizer's objective takes without a type test: float items, finite, with passing norms."""
    try:
        checked, state, pairs = _hardy_vectors(theta)
    except ValidationError:
        return
    assert type(checked) is float and math.isfinite(checked)
    assert type(state) is tuple and len(state) == 4
    assert type(pairs) is tuple and len(pairs) == 4
    for pair in pairs:
        assert type(pair) is tuple and len(pair) == 2
        for vec in pair:
            assert type(vec) is tuple and len(vec) == 2
    items = list(state) + [x for pair in pairs for vec in pair for x in vec]
    assert all(type(x) is float and math.isfinite(x) for x in items)
    assert abs(_norm_squared(state) - 1.0) <= IDENTITY_TOL
    for plus, minus in pairs:
        assert max(_basis_deviations(plus, minus)) <= INPUT_TOL


#: Digits of other scripts, which ``float()`` reads as their values: Arabic-Indic, Devanagari and full-width.
_DIGITS = [str.maketrans("0123456789", digits) for digits in ("٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९", "０１２３４５６７８９")]
#: Values around pi/2 and around theta of about 2.5e-206, below which the basis construction overflows.
_EDGES = (math.pi / 2, HALF_PI_BELOW, math.nextafter(math.pi / 2, 2.0), 2.4e-206, 2.5e-206, 2.6e-206)
numbers = st.one_of(
    angles.map(repr),
    st.floats(allow_subnormal=True).map(repr),
    st.sampled_from(["0", "-0", "1", "inf", "-inf", "nan", "1e-300", "1e-16", "1e400", "0x1p-3", "", "abc"]),
    st.sampled_from(["1_0e-1", "0.3_0", "_0.3", "0.3_", "1__0", "5e-324", "2.2250738585072014e-308", "1e-310"]),
    st.sampled_from(_EDGES).map(repr),
    st.floats(2e-206, 3e-206).map(repr),
    angles.map(float.hex),
    st.tuples(angles.map(repr), st.sampled_from(_DIGITS)).map(lambda t: t[0].translate(t[1])),
    st.tuples(st.sampled_from([" ", "\t", "\n", "\u2003", "\x00"]), angles.map(repr)).map(lambda t: t[0] + t[1] + t[0]),
)
#: Stand-ins for --out targets, each made a path inside the example's own directory.
OUT_TARGETS = {"@file": "out", "@dir": ".", "@missing": "missing/out", "@nul": "a\x00b"}
flags = st.sampled_from(["--theta", "--tol", "--format", "--out", "--bogus", "--th", "-h"])
values = st.one_of(st.sampled_from(["json", "csv", "text", "xml"]), numbers, st.sampled_from(list(OUT_TARGETS)))
tokens = st.one_of(
    st.sampled_from(["verify", "counterfactual", "lhv", "optimize", "table", "frobnicate"]),
    flags,
    values,
    st.tuples(flags, values).map("=".join),
)
argvs = st.one_of(
    st.lists(tokens, max_size=6),
    st.tuples(
        st.sampled_from(["verify", "table", "optimize"]),
        st.sampled_from(["--theta", "--tol"]),
        numbers,
        st.sampled_from(["json", "csv", "text"]),
    ).map(lambda t: [t[0], t[1], t[2], "--format", t[3]]),
    st.tuples(  # a command and flags with values of their kind, which may repeat, all as --flag=value or all as two tokens
        st.sampled_from(["verify", "table", "optimize", "lhv", "counterfactual"]),
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(["--theta", "--tol"]), numbers),
                st.tuples(st.just("--format"), st.sampled_from(["json", "csv", "text"])),
                st.tuples(st.just("--out"), st.sampled_from(list(OUT_TARGETS))),
            ),
            max_size=4,
        ),
        st.booleans(),
    ).map(lambda t: [t[0], *(part for flag, value in t[1] for part in ((f"{flag}={value}",) if t[2] else (flag, value)))]),
)


def _parses_as(data: bytes, fmt: str) -> None:
    text = data.decode("utf-8")
    if fmt == "json":
        json.loads(text)
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["setting_pair", "outcome_pair", "probability"] and len(rows) == 17
        assert all(len(row) == 3 and math.isfinite(float(row[2])) for row in rows[1:])
    else:
        assert text.endswith("\n") and text.strip()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=argvs)
@example(argv=["verify", "--theta", "1e-300"])
@example(argv=["optimize", "--tol", "inf"])
@example(argv=["verify", "--tol", "inf", "--format", "json"])
@example(argv=["optimize", "--tol", "1e-16"])
@example(argv=["table", "--theta=0x1p-3", "--theta", "٠.٣", "--format=csv", "--out", "@file"])
@example(argv=["lhv", "--out=@nul"])
@example(argv=["lhv", "--out", "@dir"])
@example(argv=["verify", "--out", "@missing", "--format=json"])
@example(argv=["table", "--theta", repr(HALF_PI_BELOW), "--theta", "2.5e-206"])
@example(argv=["table", "--tol", "\n1.0\n"])  # argparse quotes an unrecognized argument as given
def test_cli_exits_0_1_or_2_without_a_traceback(argv: list[str]) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    helped = False
    with tempfile.TemporaryDirectory() as tmp:
        # An --out value names a path inside a fresh directory, never a path elsewhere: its stand-in's, else "out".
        target = lambda value: str(Path(tmp) / OUT_TARGETS.get(value, "out"))
        argv = [
            target(a) if i and argv[i - 1] == "--out" else "--out=" + target(a[6:]) if a.startswith("--out=") else a
            for i, a in enumerate(argv)
        ]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's -h prints help and exits 0
                code, helped = exc.code, True
        if code == 0 and not helped:
            args = build_parser().parse_args(argv)
            _parses_as(Path(args.out).read_bytes() if args.out else stdout.getvalue().encode(), args.format)
    assert code in (0, 1, 2)
    err = stderr.getvalue()
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")), err


_CONFIG = build_hardy_configuration(0.7)
_TABLE = joint_probability_table(_CONFIG)
#: A valid value per parameter name of the public functions, so that a call can get past its first argument.
VALID_ARGUMENTS = {
    "theta": 0.5, "tol": 1e-9, "lo": 0.2, "hi": 1.2, "label": "c1", "fmt": "json", "payload": {"a": [1, 2.5]},
    "config": _CONFIG, "table": _TABLE, "report": verify_hardy_predictions(_TABLE), "state": _CONFIG.state,
    "basis": _CONFIG.bases[1], "left_basis": _CONFIG.bases[0], "right_basis": _CONFIG.bases[2],
    "outcome": Outcome.MINUS, "left_outcome": Outcome.PLUS, "right_outcome": Outcome.MINUS,
    "setting": Setting.R1, "context": Setting.L2, "constraint_set": hardy_constraint_set(),
    "constraint": hardy_constraint_set().zeros[1], "instance": enumerate_instances()[9], "strategy": enumerate_strategies()[5],
}
#: Words by which an error may name a parameter, besides its name; "left_basis" is also named by "basis".
ROLES = {"context": ("choice",), "fmt": ("format", "csv"), "payload": ("serialize",), "report": ("serialize",)}
PUBLIC_FUNCTIONS = [value for name in hardycheck.__all__ if inspect.isfunction(value := getattr(hardycheck, name))]
odd_objects = st.one_of(
    st.from_type(object),
    st.sampled_from([*Setting, *Outcome]),  # an enum where another is expected, or the wrong member
    st.sampled_from([10**400, -(10**400), 2**1024, 10**5000]),  # past float range, and past str()'s digit limit
    st.lists(st.sampled_from([math.nan, 0.0, 1.0, math.inf, 1j, 10**5000]), min_size=1, max_size=6).map(tuple),
)


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(func=st.sampled_from(PUBLIC_FUNCTIONS), data=st.data())
def test_a_public_function_gives_a_result_or_an_error_that_names_an_argument(func, data: st.DataObject) -> None:
    names = list(inspect.signature(func).parameters)
    args = [data.draw(st.one_of(st.just(VALID_ARGUMENTS[name]), odd_objects), label=name) for name in names]
    kept = data.draw(st.one_of(st.just(len(args)), st.integers(0, len(args))), label="arguments kept")
    args = args[:kept] + data.draw(st.lists(odd_objects, max_size=1), label="extra")
    try:
        inspect.signature(func).bind(*args)
    except TypeError:
        with pytest.raises(TypeError):  # Python's own arity error
            func(*args)
        return
    try:
        func(*args)
    except (ValidationError, UsageError) as exc:
        words = {word for name in names for word in (name, name.split("_")[-1], *ROLES.get(name, ()))}
        assert any(word in str(exc) for word in words), f"{func.__name__}: {exc}"
    except ConvergenceError:
        assert func is maximize_paradox  # its documented failure: the tolerance cannot be met
    except TypeError as exc:  # a type the renderer documents it cannot write
        assert func in (to_json_text, render_report), f"{func.__name__}: {exc!r}"
        assert re.match(r"^(cannot serialize \w+ to JSON|no text renderer for \w+|keys must be str, )", str(exc)), exc


JOINT_EVENTS = [((sl, sr), (ol, orr)) for sl in LEFT_SETTINGS for sr in RIGHT_SETTINGS for ol in OUTCOMES for orr in OUTCOMES]


@st.composite
def constraint_sets(draw: st.DrawFn) -> ConstraintSet:
    """0-3 zeros and 0-2 positivity events, distinct, from the 16 joint events."""
    n_zeros, n_positive = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    events = draw(st.permutations(JOINT_EVENTS))[: n_zeros + n_positive]
    constraints = [Constraint(f"Eq{i + 1}", *event) for i, event in enumerate(events)]
    return ConstraintSet(zeros=tuple(constraints[:n_zeros]), positivity=tuple(constraints[n_zeros:]))


@settings(max_examples=200, deadline=None)
@given(cs=constraint_sets())
@example(cs=hardy_constraint_set())
@example(cs=ConstraintSet())
def test_logic_json_is_what_stdlib_json_prints(cs: ConstraintSet) -> None:
    # Exact for these float-free payloads: stdlib json is an independent emitter of the same layout.
    for report in (locality_violation_report(cs), check_property1(cs), check_property2(cs), hardy_lhv_feasibility(cs)):
        rendered = render_report(report, "json")
        assert rendered == (json.dumps(json.loads(rendered), indent=2) + "\n").encode()


@st.composite
def larger_constraint_sets(draw: st.DrawFn) -> ConstraintSet:
    """1-6 zeros and 0-3 positivity events, distinct, from the 16 joint events."""
    n_zeros, n_positive = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    events = draw(st.permutations(JOINT_EVENTS))[: n_zeros + n_positive]
    constraints = [Constraint(f"Eq{i + 1}", *event) for i, event in enumerate(events)]
    return ConstraintSet(zeros=tuple(constraints[:n_zeros]), positivity=tuple(constraints[n_zeros:]))


def set_tree(cs: ConstraintSet) -> dict:
    def event(c: Constraint) -> dict:
        return {"label": c.label, "settings": [s.value for s in c.settings], "outcomes": [o.value for o in c.outcomes]}

    return {"zeros": [event(c) for c in cs.zeros], "positivity": [event(c) for c in cs.positivity]}


def verdict_tree(v: object) -> dict | None:
    if v is None:
        return None
    return {"instance_index": v.instance_index, "context": v.context.value, "premise_holds": v.premise_holds, "sr_value": v.sr_value}


def locality_tree(report: object) -> dict:
    p1, p2 = report.property1, report.property2
    return {
        "violation": report.violation,
        "sr_always_true_at_L2": report.sr_always_true_at_l2,
        "sr_sometimes_false_at_L1": report.sr_sometimes_false_at_l1,
        "note": report.note,
        "property1": {
            "holds": p1.holds,
            "admissible_count": len(p1.admissible),
            "admissible_ids": [inst.index for inst in p1.admissible],
            "sr_verdicts": [verdict_tree(v) for v in p1.verdicts],
            "counterexample_ids": [inst.index for inst in p1.counterexamples],
            "constraint_set": set_tree(p1.constraint_set),
        },
        "property2": {
            "witness_found": p2.witness_found,
            "witness_id": None if p2.witness is None else p2.witness.index,
            "witness": None if p2.witness is None else [o.value for o in p2.witness.outcomes],
            "witness_count": p2.witness_count,
            "sr_verdict": verdict_tree(p2.witness_verdict),
            "forced_step": p2.forced_step,
            "constraint_set": set_tree(p2.constraint_set),
        },
    }


def feasibility_tree(result: object) -> dict:
    return {
        "feasible": result.feasible,
        "witness_count": len(result.witnesses),
        "witnesses": [[o.value for o in w.outcomes] for w in result.witnesses],
        "assumed": list(result.assumed),
        "trace": [{"constraint": s.constraint, "assignment": s.assignment, "kind": s.kind} for s in result.trace],
        "constraint_set": set_tree(result.constraint_set),
    }


@settings(max_examples=150, deadline=None)
@given(cs=larger_constraint_sets())
@example(cs=hardy_constraint_set())
def test_logic_json_rendered_twice_is_stdlib_json_of_the_report_fields(cs: ConstraintSet) -> None:
    # The first rendering keeps each frozen record's text, the second reuses it at every depth it is nested at;
    # both must be the bytes stdlib json prints for a plain tree of the same fields.
    for report, tree in ((locality_violation_report(cs), locality_tree), (hardy_lhv_feasibility(cs), feasibility_tree)):
        expected = (json.dumps(tree(report), indent=2) + "\n").encode()
        assert render_report(report, "json") == expected
        assert render_report(report, "json") == expected


@st.composite
def split_event_sets(draw: st.DrawFn) -> ConstraintSet:
    """0-8 distinct joint events, split at a drawn point into zeros and positivity events."""
    events = draw(st.permutations(JOINT_EVENTS))[: draw(st.integers(0, 8))]
    n_zeros = draw(st.integers(0, len(events)))
    constraints = [Constraint(f"E{i}", *event) for i, event in enumerate(events)]
    return ConstraintSet(zeros=tuple(constraints[:n_zeros]), positivity=tuple(constraints[n_zeros:]))


@settings(max_examples=300, deadline=None)
@given(cs=split_event_sets())
@example(cs=hardy_constraint_set())
@example(cs=ConstraintSet())
def test_instance_set_checks_equal_the_per_instance_scan(cs: ConstraintSet) -> None:
    # The scan the reports replaced, written from the per-instance definitions.
    admissible = tuple(inst for inst in enumerate_instances() if satisfies_zeros(inst, cs))
    verdicts = tuple(evaluate_sr(inst, Setting.L2) for inst in admissible)
    counterexamples = tuple(inst for inst, verdict in zip(admissible, verdicts) if not verdict.sr_value)
    witnesses = [
        inst
        for inst in admissible
        if all(realizes(inst, p) for p in cs.positivity) and not evaluate_sr(inst, Setting.L1).sr_value
    ]
    lhv_witnesses = tuple(
        s for s in enumerate_strategies() if strategy_satisfies(s, cs) and all(strategy_realizes(s, p) for p in cs.positivity)
    )
    report, feasibility = locality_violation_report(cs), hardy_lhv_feasibility(cs)
    p1, p2 = report.property1, report.property2
    assert (p1.admissible, p1.verdicts, p1.counterexamples) == (admissible, verdicts, counterexamples)
    assert p2.witness == (witnesses[0] if witnesses else None)
    assert p2.witness_verdict == (evaluate_sr(witnesses[0], Setting.L1) if witnesses else None)
    assert p2.witness_count == len(witnesses)
    forced = bool(admissible) and not counterexamples
    flags = (report.sr_always_true_at_l2, report.sr_sometimes_false_at_l1, report.violation)
    assert flags == (forced, bool(witnesses), forced and bool(witnesses))
    assert feasibility.witnesses == lhv_witnesses and feasibility.feasible is bool(lhv_witnesses)
    assert (check_property1(cs), check_property2(cs)) == (p1, p2)
    # The zeros force the SR premise when no admissible instance pairs the witness's o_L(L1) with o_R(L1,R2) = -.
    l1, r2 = INSTANCE_FIELDS.index("o_L(L1)"), INSTANCE_FIELDS.index("o_R(L1,R2)")
    given = witnesses[0].outcomes[l1] if witnesses else None
    pinned = bool(witnesses) and not any(i.outcomes[l1] is given and i.outcomes[r2] is Outcome.MINUS for i in admissible)
    assert (p2.forced_step is not None) is pinned
    if pinned:
        zero = cs.constraint(p2.forced_step.split()[0])
        assert zero in cs.zeros and zero.event_key == ((Setting.L1, Setting.R2), (given, Outcome.MINUS))


def select_as_formerly_scanned(instances: int, items: tuple) -> tuple:
    """The per-item scan ``_select`` replaced: entry i is kept when bit i of the set is."""
    return tuple(item for i, item in enumerate(items) if instances >> i & 1)


@given(instances=st.integers(0, 2**64 - 1))
@example(instances=0)
@example(instances=2**64 - 1)
@example(instances=1)
@example(instances=1 << 63)
def test_select_keeps_the_members_of_the_per_item_scan_in_index_order(instances: int) -> None:
    for items in (enumerate_instances(), *(verdicts for verdicts, _ in _sr_table().values())):
        assert len(items) == 64
        assert _select(instances, items) == select_as_formerly_scanned(instances, items)


# Every code point, so non-ASCII and control characters too, and every other key type json.dumps takes.
json_keys = st.text() | st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False, allow_infinity=False)
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(json_keys, children, max_size=3),
    max_leaves=12,
)


@st.composite
def deep_json_values(draw: st.DrawFn) -> object:
    """A float-free JSON value nested 10-14 levels deeper than a drawn tree, with an empty list and dict at each level."""
    value = draw(json_trees)
    for _ in range(draw(st.integers(10, 14))):
        if draw(st.booleans()):
            value = [[], value, {}]
        else:  # a drawn key may repeat an earlier one; the later entry wins, as in any dict
            value = dict([(draw(json_keys), {}), (draw(json_keys), value), (draw(json_keys), [])])
    return value


@settings(max_examples=200, deadline=None)
@given(value=json_trees | deep_json_values())
@example(value=[])
@example(value={})
@example(value={"\x00\n\u00e9\U0001f600": [[], {}, "\x7f"]})
@example(value={True: 1, 1.5: 2, None: 3, -0.0: 4})
def test_json_text_is_what_stdlib_json_prints(value: object) -> None:
    assert to_json_text(value) == json.dumps(value, indent=2) + "\n"


def _float_fields_read_back(report: object) -> None:
    """Every float field of the report parses back from its JSON to the same bits."""
    payload = json.loads(render_report(report, "json"), parse_int=float)  # ".17g" prints 0.0 as "0"
    names = [name for name, kind in type(report).__annotations__.items() if "float" in kind]  # dataclass or Record
    assert names
    for name in names:
        got, want = payload[name], getattr(report, name)
        pairs = zip(got, want, strict=True) if isinstance(want, tuple) else [(got, want)]
        assert all(g.hex() == float(w).hex() for g, w in pairs), name


@settings(max_examples=100, deadline=None)
@given(theta=angles)
@example(theta=1e-200)
@example(theta=HALF_PI_BELOW)
def test_table_and_verify_json_floats_read_back_bit_for_bit(theta: float) -> None:
    try:
        table = joint_probability_table(build_hardy_configuration(theta))
    except ValidationError:
        return
    records = json.loads(render_report(table, "json"), parse_int=float)
    assert [r["probability"].hex() for r in records] == [float(r["probability"]).hex() for r in table.records()]
    _float_fields_read_back(verify_hardy_predictions(table))


@settings(max_examples=20, deadline=None)
@given(lo=st.floats(0.01, 0.7), width=st.floats(0.05, 0.8), tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
def test_optimize_json_floats_read_back_bit_for_bit(lo: float, width: float, tol: float) -> None:
    try:
        report = maximize_paradox(lo, lo + width, tol)
    except (ConvergenceError, ValidationError):
        return
    _float_fields_read_back(report)


def test_a_failing_property_fails_alone_under_the_project_warning_filters(tmp_path: Path) -> None:
    # On failure hypothesis prints a patch through libcst, whose import warns; under the project's
    # filterwarnings that warning must not abort the session with INTERNALERROR.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n@given(st.integers())\ndef test_fails(n):\n    assert n < 3\n"
    )
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    argv = ["-c", str(config), "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_fails.py"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert "1 failed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
