"""The package's export list matches what ``import hardycheck`` binds, and its entry points name bad arguments."""

from __future__ import annotations

import math
import types
from collections.abc import Callable

import pytest

import hardycheck
from hardycheck import (
    ConstraintSet,
    HardyConfiguration,
    JointProbabilityTable,
    Outcome,
    ValidationError,
    born_joint_probability,
    build_hardy_configuration,
    hardy_constraint_set,
    joint_probability_table,
    ensemble_admissible,
    enumerate_strategies,
    maximize_paradox,
    no_signalling_check,
    paradox_probability,
    reference_curve,
    reference_grid_maximum,
    validate_basis,
    verify_hardy_predictions,
)

CONFIG = build_hardy_configuration(0.7)
TABLE = joint_probability_table(CONFIG)
KEY = next(iter(TABLE.entries))
STRATEGY = enumerate_strategies()[0]
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
        pytest.param(lambda: HardyConfiguration("abcd", CONFIG.bases, 0.3), "state", id="config_str_state"),
        pytest.param(lambda: HardyConfiguration(CONFIG.state, CONFIG.bases, "x"), "theta", id="config_str_theta"),
        pytest.param(lambda: HardyConfiguration(CONFIG.state, CONFIG.bases, None), "theta", id="config_none_theta"),
        pytest.param(lambda: hardy_constraint_set().constraint("Eq5"), "label", id="constraint_unknown_label"),
        pytest.param(lambda: ensemble_admissible(5, hardy_constraint_set()), "support", id="ensemble_int_support"),
        pytest.param(lambda: ensemble_admissible(["x"], ConstraintSet()), "instance", id="ensemble_str_instance"),
        pytest.param(
            lambda: ensemble_admissible([STRATEGY], ConstraintSet()), "instance", id="ensemble_strategy_instance"
        ),
        pytest.param(lambda: hardy_constraint_set().without("Eq5"), "label", id="without_unknown_label"),
    ],
)
def test_a_non_numeric_argument_raises_validation_error_naming_it(call: Callable[[], object], argument: str) -> None:
    with pytest.raises(ValidationError, match=rf"^{argument} "):
        call()
