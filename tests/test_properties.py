"""Property tests over the whole input domain: angles, tolerances, general states and bases, and CLI argument lists.

Each property states what every input must give: a correct result, or one
of the package's own errors. An uncaught exception fails the property.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hardycheck import (
    IDENTITY_TOL,
    INPUT_TOL,
    LEFT_SETTINGS,
    OUTCOME_PAIRS,
    OUTCOMES,
    RIGHT_SETTINGS,
    ZERO_TOL,
    Constraint,
    ConstraintSet,
    ConvergenceError,
    MeasurementBasis,
    Setting,
    StateVector,
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
    inner_product,
    joint_probability_table,
    locality_violation_report,
    maximize_paradox,
    no_signalling_check,
    realizes,
    render_report,
    satisfies_zeros,
    strategy_realizes,
    strategy_satisfies,
    tensor_product,
    to_json_text,
    validate_basis,
    verify_hardy_predictions,
)
from hardycheck.cli import main

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


@settings(max_examples=200, deadline=None)
@given(state=unit_states(), left=phased_bases(Setting.L1), right=phased_bases(Setting.R2))
def test_born_rule_has_the_bits_of_the_checked_public_helpers(
    state: StateVector, left: MeasurementBasis, right: MeasurementBasis
) -> None:
    for ol, orr in OUTCOME_PAIRS:
        reference = abs(inner_product(tensor_product(left.vector_for(ol), right.vector_for(orr)), state)) ** 2
        assert born_joint_probability(state, left, ol, right, orr).hex() == reference.hex()


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


edge_parts = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0])
vector_parts = st.one_of(parts, edge_parts)
complexes = st.builds(complex, vector_parts, vector_parts)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(complexes, complexes), max_size=6))
@example(pairs=[(complex(5e-324, 0.0), complex(5e-324, 0.0)), (complex(1.0, -0.0), complex(-1e-310, 0.0))])
@example(pairs=[(complex(-0.0, 1.0), complex(1.0, -0.0)), (complex(0.0, -0.0), complex(1.0, 1.0))])
def test_inner_product_is_the_fraction_chain_bit_for_bit(pairs: list[tuple[complex, complex]]) -> None:
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    got, expected = inner_product(xs, ys), fraction_chain(xs, ys)
    assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex())


@settings(max_examples=150, deadline=None)
@given(state=unit_states(), left=phased_bases(Setting.L1), right=phased_bases(Setting.R2))
def test_born_rule_is_the_fraction_chain_bit_for_bit(
    state: StateVector, left: MeasurementBasis, right: MeasurementBasis
) -> None:
    for ol, orr in OUTCOME_PAIRS:
        projector = [x * y for x in left.vector_for(ol).components for y in right.vector_for(orr).components]
        expected = abs(fraction_chain(projector, state.components)) ** 2
        assert born_joint_probability(state, left, ol, right, orr).hex() == expected.hex()


def deviations_as_formerly_computed(basis: MeasurementBasis) -> tuple[float, float, float]:
    """The orthonormality deviations as ``validate_basis`` computed them on each call, before bases stored them."""
    plus, minus = basis.plus.components, basis.minus.components
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
    (m0, m1), skew = basis.minus.components, draw(basis_complexes)
    return MeasurementBasis(plus=basis.plus, minus=[m0 + skew, m1], label=Setting.R1)


@settings(max_examples=400, deadline=None)
@given(basis=general_bases())
@example(basis=MeasurementBasis(plus=[1.3e154, 0], minus=[1.3e154 * (1 + 1j), 0], label=Setting.L1))
@example(basis=MeasurementBasis(plus=[5e-324, 1.0], minus=[1.0, -5e-324], label=Setting.L2))
def test_basis_report_has_the_bits_of_the_per_call_formula(basis: MeasurementBasis) -> None:
    expected = deviations_as_formerly_computed(basis)
    for tol in (1e-300, IDENTITY_TOL, INPUT_TOL, 1e-3, 1.0, 1e300):
        report = validate_basis(basis, tol)
        got = (report.plus_norm_error, report.minus_norm_error, report.overlap)
        assert [x.hex() for x in got] == [x.hex() for x in expected]
        assert report.passed == (not any(x > tol for x in expected))


numbers = st.one_of(
    angles.map(repr),
    st.floats(allow_subnormal=True).map(repr),
    st.sampled_from(["0", "-0", "1", "inf", "-inf", "nan", "1e-300", "1e-16", "1e400", "0x1p-3", "", "abc"]),
)
tokens = st.one_of(
    st.sampled_from(["verify", "counterfactual", "lhv", "optimize", "table", "frobnicate", "-h"]),
    st.sampled_from(["--theta", "--tol", "--format", "--out"]),
    st.sampled_from(["json", "csv", "text", "xml"]),
    numbers,
)
argvs = st.one_of(
    st.lists(tokens, max_size=6),
    st.tuples(
        st.sampled_from(["verify", "table", "optimize"]),
        st.sampled_from(["--theta", "--tol"]),
        numbers,
        st.sampled_from(["json", "csv", "text"]),
    ).map(lambda t: [t[0], t[1], t[2], "--format", t[3]]),
)


@settings(max_examples=150, deadline=None)
@given(argv=argvs)
@example(argv=["verify", "--theta", "1e-300"])
@example(argv=["optimize", "--tol", "inf"])
@example(argv=["verify", "--tol", "inf", "--format", "json"])
@example(argv=["optimize", "--tol", "1e-16"])
def test_cli_exits_0_1_or_2_without_a_traceback(argv: list[str]) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        # A value after --out names a file inside a fresh directory, never a path elsewhere.
        argv = [str(Path(tmp) / "out") if i and argv[i - 1] == "--out" else a for i, a in enumerate(argv)]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's -h prints help and exits 0
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()


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


json_keys = st.text()  # every code point, so non-ASCII and control characters too
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
def test_json_text_is_what_stdlib_json_prints(value: object) -> None:
    assert to_json_text(value) == json.dumps(value, indent=2) + "\n"


def _float_fields_read_back(report: object) -> None:
    """Every float field of the report parses back from its JSON to the same bits."""
    payload = json.loads(render_report(report, "json"), parse_int=float)  # ".17g" prints 0.0 as "0"
    names = [f.name for f in fields(report) if "float" in str(f.type)]
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
