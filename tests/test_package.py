"""The package's export list matches what ``import hardycheck`` binds, and its entry points name bad arguments."""

from __future__ import annotations

import math
import sys
import types
from collections.abc import Callable

import pytest

import hardycheck
from hardycheck import (
    Constraint,
    ConstraintSet,
    HardyConfiguration,
    JointProbabilityTable,
    Outcome,
    Setting,
    UsageError,
    ValidationError,
    born_joint_probability,
    build_hardy_configuration,
    enumerate_instances,
    evaluate_sr,
    from_hardy_notation,
    hardy_constraint_set,
    joint_probability_table,
    maximize_paradox,
    no_signalling_check,
    paradox_probability,
    reference_curve,
    reference_grid_maximum,
    render_report,
    to_hardy_notation,
    to_json_text,
    validate_basis,
    verify_hardy_predictions,
)

CONFIG = build_hardy_configuration(0.7)
TABLE = joint_probability_table(CONFIG)
KEY = next(iter(TABLE.entries))
STR_ENTRIES = {key: repr(p) for key, p in TABLE.entries.items()}  # text a float() call would parse


def test_all_lists_exactly_the_public_names_bound_in_the_package() -> None:
    bound = {
        name
        for name, value in vars(hardycheck).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType) and name != "annotations"
    }
    assert len(set(hardycheck.__all__)) == len(hardycheck.__all__)
    assert set(hardycheck.__all__) == bound
    assert all(hasattr(hardycheck, name) for name in hardycheck.__all__)


@pytest.mark.parametrize(
    "call, argument",
    [
        pytest.param(lambda: build_hardy_configuration(None), "theta", id="build_none"),
        pytest.param(lambda: build_hardy_configuration(10**400), "theta", id="build_huge_int"),
        pytest.param(lambda: build_hardy_configuration("0.7"), "theta", id="build_numeric_str"),
        pytest.param(lambda: paradox_probability(None), "theta", id="objective_none"),
        pytest.param(lambda: paradox_probability("x"), "theta", id="objective_str"),
        pytest.param(lambda: paradox_probability(1j), "theta", id="objective_complex"),
        pytest.param(lambda: reference_curve(None), "theta", id="curve_none"),
        pytest.param(lambda: reference_curve("x"), "theta", id="curve_str"),
        pytest.param(lambda: reference_curve(math.nan), "theta", id="curve_nan"),
        pytest.param(lambda: reference_curve(0.0), "theta", id="curve_zero"),
        pytest.param(lambda: reference_curve(1e308), "theta", id="curve_huge"),
        pytest.param(lambda: maximize_paradox("abc", 1.0), "lo", id="maximize_lo_str"),
        pytest.param(lambda: maximize_paradox(0.1, None), "hi", id="maximize_hi_none"),
        pytest.param(lambda: maximize_paradox(tol="x"), "tol", id="maximize_tol_str"),
        pytest.param(lambda: reference_grid_maximum("a", 1.0), "lo", id="reference_lo_str"),
        pytest.param(lambda: verify_hardy_predictions(TABLE, tol="x"), "tol", id="verify_tol_str"),
        pytest.param(lambda: validate_basis(CONFIG.bases[0], "x"), "tol", id="validate_basis_tol_str"),
        pytest.param(lambda: validate_basis(CONFIG.bases[0], b"1e-9"), "tol", id="validate_basis_tol_bytes"),
        pytest.param(lambda: validate_basis("x"), "basis", id="validate_basis_str"),
        pytest.param(
            lambda: born_joint_probability(CONFIG.state, "L1", Outcome.PLUS, CONFIG.bases[2], Outcome.PLUS),
            "basis",
            id="born_basis_str",
        ),
        pytest.param(lambda: CONFIG.basis("L1"), "setting", id="basis_str"),
        pytest.param(lambda: CONFIG.basis([]), "setting", id="basis_unhashable"),
        pytest.param(lambda: joint_probability_table(None), "config", id="table_none"),
        pytest.param(lambda: verify_hardy_predictions(None), "table", id="verify_none"),
        pytest.param(lambda: no_signalling_check(None), "table", id="no_signalling_none"),
        pytest.param(lambda: JointProbabilityTable(STR_ENTRIES), "table entry", id="table_str_entries"),
        pytest.param(lambda: JointProbabilityTable({**TABLE.entries, KEY: None}), "table entry", id="table_none_entry"),
        pytest.param(
            lambda: JointProbabilityTable({**TABLE.entries, KEY: 0.5 + 0j}), "table entry", id="table_complex_entry"
        ),
        pytest.param(lambda: JointProbabilityTable(None), "entries", id="table_entries_none"),
        pytest.param(lambda: HardyConfiguration(CONFIG.state, (1, 2, 3, 4), 0.3), "bases entry", id="config_int_bases"),
        pytest.param(lambda: HardyConfiguration(CONFIG.state, None, 0.3), "bases", id="config_bases_none"),
        pytest.param(lambda: HardyConfiguration(CONFIG.state, CONFIG.bases[::-1], 0.3), "bases", id="config_order"),
        pytest.param(lambda: HardyConfiguration("abcd", CONFIG.bases, 0.3), "state", id="config_str_state"),
        pytest.param(lambda: HardyConfiguration(CONFIG.state, CONFIG.bases, "x"), "theta", id="config_str_theta"),
        pytest.param(lambda: HardyConfiguration(CONFIG.state, CONFIG.bases, None), "theta", id="config_none_theta"),
        pytest.param(lambda: hardy_constraint_set().constraint("Eq5"), "label", id="constraint_unknown_label"),
        pytest.param(lambda: hardy_constraint_set().without("Eq5"), "label", id="without_unknown_label"),
    ],
)
def test_a_non_numeric_argument_raises_validation_error_naming_it(call: Callable[[], object], argument: str) -> None:
    with pytest.raises(ValidationError, match=rf"^{argument} "):
        call()


LEFT_CHOICE = r"expected a left-side choice \(L1 or L2\), got "
INSTANCE = enumerate_instances()[0]


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: Constraint("x", ("L1", "R1"), (Outcome.PLUS, Outcome.PLUS)),
            LEFT_CHOICE + r"'L1' \(str\)",
            id="constraint_str",
        ),
        pytest.param(lambda: evaluate_sr(INSTANCE, "L1"), LEFT_CHOICE + r"'L1' \(str\)", id="evaluate_sr_str"),
        pytest.param(lambda: evaluate_sr(INSTANCE, Setting.R1), LEFT_CHOICE + "R1", id="evaluate_sr_right"),
        pytest.param(
            lambda: HardyConfiguration(CONFIG.state, CONFIG.bases[::-1], 0.3),
            r"bases must be labelled \(L1, L2, R1, R2\), got \(R2, R1, L2, L1\)",
            id="config_misordered",
        ),
    ],
)
def test_a_refused_value_prints_as_its_label_or_by_repr_and_type(call: Callable[[], object], message: str) -> None:
    with pytest.raises(ValidationError, match=rf"^{message}$"):
        call()


#: More digits than ``str()`` writes by default (``sys.get_int_max_str_digits()``), so its ``repr`` raises ValueError.
HUGE = 10**5000


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: build_hardy_configuration(HUGE), "theta must be a real number in float range, got ", id="theta"),
        pytest.param(lambda: from_hardy_notation(HUGE), "label must be one of the eight ket labels, got ", id="ket_label"),
        pytest.param(lambda: to_hardy_notation(HUGE, Outcome.PLUS), "no ket label for setting ", id="ket_setting"),
        pytest.param(lambda: evaluate_sr(INSTANCE, HUGE), LEFT_CHOICE, id="evaluate_sr"),
        pytest.param(lambda: CONFIG.bases[0].vector_for(HUGE), "outcome must be an Outcome, got ", id="vector_for"),
        pytest.param(lambda: CONFIG.basis(HUGE), "setting must be a Setting, got ", id="basis"),
        pytest.param(lambda: hardy_constraint_set().constraint(HUGE), "label ", id="constraint_label"),
        pytest.param(lambda: ConstraintSet(zeros=HUGE), "constraint set zeros must be an iterable", id="constraint_set"),
        pytest.param(lambda: render_report(TABLE, HUGE), "unknown format: ", id="format"),
    ],
)
def test_an_int_too_long_for_repr_is_named_by_its_type(call: Callable[[], object], message: str) -> None:
    with pytest.raises((ValidationError, UsageError), match=f"^{message}.*<int too long to show>"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: build_hardy_configuration((HUGE,)), "theta must be a real number in float range, got ", id="theta"),
        pytest.param(
            lambda: Constraint("c", (Setting.L1, Setting.R1), (HUGE, Outcome.PLUS)),
            "constraint 'c' outcomes must be Outcome members, got ",
            id="constraint_outcomes",
        ),
    ],
)
def test_a_tuple_holding_such_an_int_is_named_by_its_type(call: Callable[[], object], message: str) -> None:
    with pytest.raises(ValidationError, match=f"^{message}<tuple too long to show>$"):
        call()


def test_a_value_error_inside_to_json_text_is_refused_with_its_own_cause() -> None:
    class Broken:
        def to_json_dict(self) -> dict[str, object]:
            raise ValueError("no value for key 'x'")

    for payload, cause in (([1, HUGE], "Exceeds the limit"), ({HUGE: 1}, "Exceeds the limit"), (Broken(), "no value for")):
        with pytest.raises(ValidationError, match=f"^cannot serialize payload: {cause}"):
            to_json_text(payload)


def test_a_payload_nested_past_the_recursion_limit_is_refused_as_a_validation_error() -> None:
    payload: list = []
    for _ in range(sys.getrecursionlimit() * 3):
        payload = [payload]
    with pytest.raises(ValidationError, match="^cannot serialize payload: maximum recursion depth exceeded"):
        to_json_text(payload)
    assert to_json_text([[[]]]) == "[\n  [\n    []\n  ]\n]\n"  # the emitters still work after the unwinding
