"""Property tests over the whole input domain: angles, tolerances, general states and bases, and CLI argument lists.

Each property states what every input must give: a correct result, or one
of the package's own errors. An uncaught exception fails the property.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hardycheck import (
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
    hardy_constraint_set,
    hardy_lhv_feasibility,
    inner_product,
    joint_probability_table,
    locality_violation_report,
    maximize_paradox,
    no_signalling_check,
    render_report,
    tensor_product,
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
def unit_states(draw: st.DrawFn) -> object:
    raw = np.array([complex(draw(parts), draw(parts)) for _ in range(4)])
    norm = np.linalg.norm(raw)
    assume(norm > 1e-3)
    state = raw / norm
    return StateVector(state) if draw(st.booleans()) else state


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
    state: object, left: MeasurementBasis, right: MeasurementBasis
) -> None:
    for ol, orr in OUTCOME_PAIRS:
        reference = abs(inner_product(tensor_product(left.vector_for(ol), right.vector_for(orr)), state)) ** 2
        assert born_joint_probability(state, left, ol, right, orr).hex() == reference.hex()


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
