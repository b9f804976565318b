"""End-to-end tests of the command-line interface and report rendering."""

from __future__ import annotations

import enum
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest

from hardycheck import (
    Constraint,
    ConstraintSet,
    FeasibilityResult,
    JointProbabilityTable,
    LocalityReport,
    MeasurementBasis,
    ObjectiveReport,
    Outcome,
    PredictionReport,
    Setting,
    UsageError,
    ValidationError,
    build_hardy_configuration,
    check_property1,
    check_property2,
    hardy_constraint_set,
    hardy_lhv_feasibility,
    joint_probability_table,
    locality_violation_report,
    maximize_paradox,
    no_signalling_check,
    render_report,
    to_json_text,
    validate_basis,
    verify_hardy_predictions,
)
from hardycheck.cli import main
from hardycheck.render import _EMITTERS, _PADS, _TEXT_RENDERERS

PI_6 = "0.5235987755982988"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_verify_json_reports_four_true_verdicts(self, capsys) -> None:
        code, out, _ = run(capsys, "verify", "--theta", PI_6, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdicts"] == [True, True, True, True]
        assert payload["all_hold"] is True
        assert payload["p4_positive"] == pytest.approx(0.07814065897005947, rel=1e-12)

    def test_unknown_command_is_usage_error(self, capsys) -> None:
        code, out, err = run(capsys, "frobnicate")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_missing_command_is_usage_error(self, capsys) -> None:
        code, _, err = run(capsys)
        assert code == 2
        assert "command" in err

    @pytest.mark.parametrize("theta", ["0", "1.5707963267948966", "2.5", "-0.3", "nan", "-1e-3"])
    def test_out_of_range_theta_is_usage_error(self, capsys, theta: str) -> None:
        code, out, err = run(capsys, "verify", "--theta", theta)
        assert (code, out) == (2, "")
        assert err.startswith("error: theta ")

    def test_negative_exponent_theta_reaches_the_library_check(self, capsys) -> None:
        code, out, err = run(capsys, "table", "--theta", "-1e-3")
        assert (code, out) == (2, "")
        assert err == "error: theta must lie strictly inside (0, pi/2), got -0.001\n"

    @pytest.mark.parametrize(
        "tol", [["--tol", "-1e-9"], ["--tol=-1e-9"], ["--tol", "0"], ["--tol", "-.5"]], ids=["-1e-9", "=-1e-9", "0", "-.5"]
    )
    @pytest.mark.parametrize("command", ["verify", "optimize"])
    def test_nonpositive_tol_is_usage_error(self, capsys, command: str, tol: list[str]) -> None:
        code, out, err = run(capsys, command, *tol)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        # A separate negative value in exponent or leading-dot form is a value, so every spelling reaches the library check.
        assert err.startswith("error: tol ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["lhv", "--theta", "0.5"],
            ["counterfactual", "--theta", "0.5"],
            ["optimize", "--theta", "0.3"],
            ["table", "--tol", "1e-3"],
            ["lhv", "--tol", "1e-3"],
            ["counterfactual", "--tol", "1e-3"],
        ],
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, capsys, argv: list[str]) -> None:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: unrecognized arguments: {argv[1]}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["table", "--t", "0.3"], ["optimize", "--t", "1e-3"], ["verify", "--th", "0.3"], ["lhv", "--f", "json"]],
        ids=["table--t", "optimize--t", "verify--th", "lhv--f"],
    )
    def test_flag_prefix_is_usage_error(self, capsys, argv: list[str]) -> None:
        # A prefix is never expanded, so its meaning cannot depend on which other flags the command has.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: unrecognized arguments: {argv[1]}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["table", "--tol", "\n1.0\u2003"], "--tol \\n1.0\\u2003"),
            (["lhv", "a\n\u0660.\u0663\\b"], "a\\n\u0660.\u0663\\b"),  # printable text stays as typed
        ],
    )
    def test_an_unprintable_character_of_an_argument_is_escaped_onto_one_line(self, capsys, argv, shown) -> None:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: unrecognized arguments: {shown}\n"

    def test_csv_for_non_table_report_is_usage_error(self, capsys) -> None:
        code, _, err = run(capsys, "verify", "--format", "csv")
        assert code == 2
        assert "csv" in err

    def test_failed_check_exits_one_but_still_prints_report(self, capsys) -> None:
        code, out, _ = run(capsys, "verify", "--tol", "1e-40", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["all_hold"] is False

    def test_exit_code_does_not_depend_on_format(self, capsys) -> None:
        codes = {fmt: run(capsys, "verify", "--format", fmt)[0] for fmt in ("json", "text")}
        assert codes["json"] == codes["text"] == 0

    @pytest.mark.parametrize(
        "argv, expected_code",
        [
            (["verify", "--theta", "1e-300"], 2),
            (["verify", "--tol", "inf"], 2),
            (["optimize", "--tol", "inf"], 1),
            (["optimize", "--tol", "1e-16", "--format", "json"], 0),
            (["verify", "--theta", "5e-324"], 2),
        ],
    )
    def test_extreme_theta_and_tol_end_cleanly(self, capsys, argv: list[str], expected_code: int) -> None:
        code, out, err = run(capsys, *argv)
        assert code == expected_code
        if expected_code == 0:
            assert err == ""
            assert json.loads(out)["iterations"] < 100
        else:
            assert out == ""
            assert err.startswith("error:")
            assert err.count("\n") == 1
        if "--theta" in argv:
            assert "too small" in err


class TestCommands:
    def test_lhv_reports_infeasibility_with_three_step_trace(self, capsys) -> None:
        code, out, _ = run(capsys, "lhv", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is False
        assert len(payload["trace"]) == 3

    def test_lhv_text_contains_the_deduction(self, capsys) -> None:
        code, out, _ = run(capsys, "lhv")
        assert code == 0
        assert "feasible: no" in out
        for label in ("Eq2", "Eq3", "Eq1"):
            assert label in out

    def test_counterfactual_text_names_the_witness_six_tuple(self, capsys) -> None:
        code, out, _ = run(capsys, "counterfactual")
        assert code == 0
        assert "(-, +, +, +, -, +)" in out
        assert "Property 1" in out
        assert "Property 2" in out
        assert "SR" in out

    def test_counterfactual_json_flags_violation(self, capsys) -> None:
        code, out, _ = run(capsys, "counterfactual", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["violation"] is True
        assert payload["property1"]["admissible_count"] == 24

    def test_table_csv_has_header_and_16_rows(self, capsys) -> None:
        code, out, _ = run(capsys, "table", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "setting_pair,outcome_pair,probability"
        assert len(lines) == 17
        assert lines[1].startswith('"L1,R1",++,')
        assert lines[16].startswith('"L2,R2",--,')

    def test_table_json_lists_records_in_fixed_order(self, capsys) -> None:
        code, out, _ = run(capsys, "table", "--format", "json", "--theta", "0.7")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 16
        assert [r["setting_pair"] for r in payload[:4]] == ["L1,R1"] * 4
        total = sum(r["probability"] for r in payload[:4])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_optimize_json_report(self, capsys) -> None:
        code, out, _ = run(capsys, "optimize", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_gap"] <= 1e-8
        assert payload["p4_max"] == pytest.approx((5 * math.sqrt(5) - 11) / 2, abs=1e-8)
        assert payload["iterations"] <= 200

    def test_default_format_is_text(self, capsys) -> None:
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert out.startswith("Hardy prediction report")


class TestDeterminismAndOutput:
    def test_repeated_runs_are_bit_identical(self, capsys) -> None:
        _, first, _ = run(capsys, "verify", "--format", "json")
        _, second, _ = run(capsys, "verify", "--format", "json")
        assert first == second
        _, first_text, _ = run(capsys, "optimize")
        _, second_text, _ = run(capsys, "optimize")
        assert first_text == second_text

    def test_out_file_matches_stdout_bytes(self, capsys, tmp_path) -> None:
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        _, stdout_run, _ = run(capsys, "verify", "--format", "json")
        assert target.read_bytes().decode("utf-8") == stdout_run

    def test_out_into_missing_directory_is_one_line_usage_error(self, capsys, tmp_path) -> None:
        target = tmp_path / "no-such-dir" / "report.txt"
        code, out, err = run(capsys, "verify", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert not target.exists()

    def test_out_path_with_a_nul_byte_is_one_line_usage_error(self, capsys) -> None:
        code, out, err = run(capsys, "lhv", "--out", "a\x00b")  # open() refuses it with ValueError, not OSError
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_stdout_whose_reader_has_gone_is_one_line_error(self) -> None:
        # Python ignores SIGPIPE, so the report's flush into a pipe with no reader raises BrokenPipeError.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hardycheck.cli", "lhv"], stdout=write_end, stderr=subprocess.PIPE, env=env,
                text=True, timeout=120,
            )  # fmt: skip
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_json_floats_carry_17_significant_digits(self, capsys) -> None:
        _, out, _ = run(capsys, "verify", "--theta", PI_6, "--format", "json")
        payload = json.loads(out)
        rendered = format(payload["p4_positive"], ".17g")
        assert rendered in out


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.iterdir() if p.is_file()))
def test_stdout_matches_golden_bytes(capsys, golden: str) -> None:
    stem, fmt = golden.rsplit(".", 1)
    command, _, theta = stem.partition("-theta")
    argv = [command, "--format", fmt] + (["--theta", theta] if theta else [])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("golden", sorted(p.name for p in (GOLDEN / "drop_one").iterdir()))
def test_drop_one_reports_match_golden_bytes(golden: str) -> None:
    # The full Hardy set never reaches the counterexample or feasible branches; its drop-one variants do.
    stem, fmt = golden.rsplit(".", 1)
    command, _, label = stem.partition("-without-")
    check = {"counterfactual": locality_violation_report, "lhv": hardy_lhv_feasibility}[command]
    report = check(hardy_constraint_set().without(label))
    assert render_report(report, fmt) == (GOLDEN / "drop_one" / golden).read_bytes()


_SKEWED_BASIS = MeasurementBasis(plus=[1.0, 0.0], minus=[0.6, 0.8], label=Setting.R1)


def _every_report() -> list[object]:
    config = build_hardy_configuration(0.5)
    table = joint_probability_table(config)
    cs = hardy_constraint_set()
    # Both zeros on (L1,R2) with right outcome + leave the SR premise at L1 unsatisfiable.
    no_witness = ConstraintSet(
        zeros=tuple(Constraint(f"Z{o}", (Setting.L1, Setting.R2), (o, Outcome.PLUS)) for o in Outcome)
    )
    return [
        verify_hardy_predictions(table),
        table,
        no_signalling_check(table),
        locality_violation_report(cs),
        check_property1(cs),
        check_property2(cs),
        check_property2(no_witness),
        hardy_lhv_feasibility(cs),
        hardy_lhv_feasibility(cs.without("Eq1")),
        maximize_paradox(0.3, 0.6, 1e-6),
        validate_basis(build_hardy_configuration(0.3).basis(Setting.L1)),
        # Failing reports, with explicit ids so the ids above keep their names.
        pytest.param(check_property1(cs.without("Eq2")), id="Property1Report-counterexamples"),
        pytest.param(validate_basis(_SKEWED_BASIS), id="BasisReport-FAIL"),
    ]


#: The report types a command prints; each has a text renderer, and no other type has one.
PRINTED_TYPES = (PredictionReport, JointProbabilityTable, LocalityReport, FeasibilityResult, ObjectiveReport)


@pytest.mark.parametrize("report", _every_report(), ids=lambda r: type(r).__name__)
def test_every_report_renders_as_json_and_a_printed_one_as_text(report: object) -> None:
    payload = json.loads(render_report(report, "json"))
    assert isinstance(payload, list if isinstance(report, JointProbabilityTable) else dict)
    assert payload
    if type(report) in PRINTED_TYPES:
        text = render_report(report, "text").decode("utf-8")
        assert text.endswith("\n") and text.strip()
    else:
        with pytest.raises(TypeError, match=f"^no text renderer for {type(report).__name__}$"):
            render_report(report, "text")


def test_the_text_renderer_table_holds_exactly_the_printed_types() -> None:
    assert tuple(_TEXT_RENDERERS) == tuple((kind.__module__, kind.__qualname__) for kind in PRINTED_TYPES)


@pytest.mark.parametrize(
    ("basis", "failures"),
    [
        pytest.param(build_hardy_configuration(0.3).basis(Setting.L1), [], id="pass"),
        pytest.param(_SKEWED_BASIS, ["plus/minus overlap magnitude 6.000e-01"], id="FAIL"),
    ],
)
def test_basis_report_json_lists_its_failures(basis: MeasurementBasis, failures: list[str]) -> None:
    payload = json.loads(render_report(validate_basis(basis), "json"))
    assert payload["passed"] is (not failures)
    assert payload["failures"] == failures


def test_a_basis_report_with_overflowing_deviations_raises_validation_error_in_json() -> None:
    # Its norm errors and overlap overflow and are stored as inf, which JSON cannot hold.
    report = validate_basis(MeasurementBasis([1e300, 1e300], [1e300, -1e300], Setting.L1))
    with pytest.raises(ValidationError, match=r"^cannot serialize non-finite float inf$"):
        render_report(report, "json")


def test_failing_reports_list_their_failures_in_text() -> None:
    report = locality_violation_report(hardy_constraint_set().without("Eq2"))
    lines = render_report(report, "text").decode("utf-8").splitlines()
    assert report.property1.counterexamples
    assert [line for line in lines if "counterexample #" in line] == [
        f"    counterexample #{inst.index}: {inst}" for inst in report.property1.counterexamples
    ]


def test_unrenderable_values_raise() -> None:
    with pytest.raises(ValidationError, match="non-finite"):
        to_json_text(math.nan)
    with pytest.raises(TypeError, match="cannot serialize object"):
        to_json_text(object())
    with pytest.raises(TypeError, match="no text renderer"):
        render_report(object(), "text")


def test_json_emitters_by_type() -> None:
    @dataclass
    class NoFields:
        pass

    class Colour(Enum):
        RED = 1

    assert to_json_text(NoFields()) == "{}\n"
    assert to_json_text([NoFields(), {"k": NoFields()}]) == '[\n  {},\n  {\n    "k": {}\n  }\n]\n'
    assert to_json_text(Colour.RED) == '"Colour.RED"\n'
    assert to_json_text((True, 1, False, 0)) == "[\n  true,\n  1,\n  false,\n  0\n]\n"  # bool before its base, int


def test_an_int_subclass_renders_as_json_dumps_writes_it() -> None:
    class Level(enum.IntEnum):
        LOW = 1

    class Loud(int):
        def __str__(self) -> str:
            return "loud"

    values = [Level.LOW, Loud(7), {"k": [Level.LOW, -3]}]
    assert to_json_text(values) == json.dumps(values, indent=2) + "\n"  # 1, not the bare C.A token of 3.10's str()


def _fresh_set(label: str = "Z") -> ConstraintSet:
    """A constraint set built here, so no earlier rendering has kept its text."""
    zero = Constraint(label, (Setting.L1, Setting.R2), (Outcome.MINUS, Outcome.MINUS))
    return ConstraintSet(zeros=(zero,), positivity=(Constraint(label + "+", (Setting.L1, Setting.R1), (Outcome.MINUS, Outcome.PLUS)),))


def _kept_tables() -> dict[type, list[int]]:
    """The size of each table an emitter keeps: the one key tuple of a ``to_json_dict`` type, an enum's member texts."""
    return {cls: [len(arg) for arg in emit.args if isinstance(arg, (list, dict))] for cls, emit in _EMITTERS.items() if isinstance(emit, partial)}


class TestKeptJson:
    """A frozen record's JSON is rendered once, kept on the record, and shifted once to each indent it is emitted at."""

    @pytest.mark.parametrize("alone_first", [True, False], ids=["alone-first", "nested-first"])
    def test_a_record_alone_and_nested_gives_the_shifted_text(self, alone_first: bool) -> None:
        cs = _fresh_set()
        nested = {"k": [cs]}
        first, second = (cs, nested) if alone_first else (nested, cs)
        texts = {id(payload): to_json_text(payload) for payload in (first, second)}
        alone = texts[id(cs)]
        assert alone == json.dumps(json.loads(alone), indent=2) + "\n"
        assert texts[id(nested)] == '{\n  "k": [\n    ' + alone[:-1].replace("\n", "\n    ") + "\n  ]\n}\n"
        kept = vars(cs)["_json"]  # per indent depth, without the closing newline
        assert kept[0] == alone[:-1] and kept[2] == alone[:-1].replace("\n", "\n    ") and sorted(kept) == [0, 2]
        assert to_json_text(cs) == alone and to_json_text(nested) == texts[id(nested)]

    def test_a_record_at_three_depths_gives_each_depths_shifted_text(self) -> None:
        plain = json.loads(to_json_text(_fresh_set()))
        one = _fresh_set()  # first emitted at depth 1, then at 2 and 3 in the same payload
        assert to_json_text({"a": one, "b": [one], "c": [[one]]}) == json.dumps({"a": plain, "b": [plain], "c": [[plain]]}, indent=2) + "\n"
        across = _fresh_set()  # one depth per payload, deepest first, then again
        for payload, twin in [([[across]], [[plain]]), (across, plain), ([across], [plain])] * 2:
            assert to_json_text(payload) == json.dumps(twin, indent=2) + "\n"
        assert sorted(vars(one)["_json"]) == [0, 1, 2, 3] and sorted(vars(across)["_json"]) == [0, 1, 2]

    def test_members_and_flag_combinations_render_as_their_own_text(self) -> None:
        class Access(enum.Flag):
            READ = 1
            WRITE = 2
            RUN = 4

        class Odd(Enum):
            QUOTE = 1
            ACCENT = 2

            def __str__(self) -> str:
                return {1: 'say "hi"\nthen \\', 2: "caf\u00e9 \u2192 \U0001d53c"}[self.value]

        values = [Access.READ | Access.WRITE, Access.READ, Odd.QUOTE, Access.WRITE | Access.RUN, Odd.ACCENT, Access(0), Access.RUN]
        expected = "[\n  " + ",\n  ".join(encode_basestring_ascii(str(value)) for value in values) + "\n]\n"
        assert to_json_text(values) == to_json_text(values) == expected
        assert json.loads(expected)[2:5:2] == ['say "hi"\nthen \\', "caf\u00e9 \u2192 \U0001d53c"]
        assert [len(_EMITTERS[cls].args[0]) for cls in (Access, Odd)] == [3, 2]  # one text per listed member

    def test_a_to_json_dict_type_renders_the_keys_of_each_call(self) -> None:
        class Derived:
            def __init__(self, members: dict) -> None:
                self.members = members

            def to_json_dict(self) -> dict:
                return self.members

        calls = [
            {"a": 1, "b": 2}, {"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1}, {}, {"a": 1, "c": [3]},
            {1: "x"}, {True: "x"}, {"1": "x"}, {1.0: "x"}, {"a": 1, "b": 2},
        ]  # fmt: skip
        for members in calls:
            text = to_json_text(Derived(members))
            assert text == to_json_text(members) == json.dumps(members, indent=2) + "\n"  # 1 -> "1", True -> "true"

    def test_a_nan_or_inf_key_is_refused_as_a_value_is_and_other_key_types_as_json_refuses_them(self) -> None:
        for key in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="^cannot serialize non-finite float"):
                to_json_text({"a": 1, key: 2})
        for key in ((1, 2), Setting.L1, b"x"):
            with pytest.raises(TypeError, match=f"^keys must be str, int, float, bool or None, not {type(key).__name__}$"):
                to_json_text({key: 1})
            with pytest.raises(TypeError):
                json.dumps({key: 1})

    def test_only_frozen_eq_records_without_to_json_dict_keep_their_text(self) -> None:
        @dataclass(frozen=True, eq=False)
        class Unequal:
            value: int

        @dataclass(frozen=True)
        class Holder:
            report: object

        @dataclass(frozen=True, slots=True)
        class Slotted:  # no __dict__ to keep the text in, so it is rendered each time
            value: int

        report = locality_violation_report(_fresh_set())
        checks = no_signalling_check(joint_probability_table(build_hardy_configuration(0.5)))
        unequal, holder = Unequal(1), Holder(checks)
        for record in (report, checks, unequal, holder):
            render_report(record, "json")
        assert "_json" in vars(report.property1.constraint_set) and "_json" in vars(report.property2.witness_verdict)
        for record in (report, report.property1, checks, unequal, holder):
            assert "_json" not in vars(record)
        assert to_json_text([Slotted(1)]) == to_json_text([Slotted(1)]) == "[\n  {\n    \"value\": 1\n  }\n]\n"

    def test_a_changed_dict_inside_a_record_renders_its_new_value(self) -> None:
        @dataclass(frozen=True)
        class Report:  # a frozen record around a plain dict, so it does not hash and its text is not kept
            deviations: dict

        @dataclass(frozen=True)
        class Holder:
            report: object

        report = Report({"a": 0.25, "b": 0.0})
        holder = Holder(report)
        before = json.loads(render_report(report, "json")), json.loads(render_report(holder, "json"))
        report.deviations["a"] = 0.5
        after = json.loads(render_report(report, "json")), json.loads(render_report(holder, "json"))
        assert before[0]["deviations"]["a"] == 0.25 and before[1]["report"]["deviations"]["a"] == 0.25
        assert after[0]["deviations"]["a"] == 0.5 and after[1]["report"]["deviations"]["a"] == 0.5
        assert "_json" not in vars(report) and "_json" not in vars(holder)

    def test_a_replaced_record_renders_its_new_fields(self) -> None:
        objective = maximize_paradox(tol=1e-6)
        zero = _fresh_set().zeros[0]
        old = render_report(objective, "json"), render_report(zero, "json")
        new_objective = objective.__replace__(iterations=objective.iterations + 1)
        new_zero = zero.__replace__(label="Renamed")
        assert json.loads(render_report(new_objective, "json"))["iterations"] == objective.iterations + 1
        assert json.loads(render_report(new_zero, "json"))["label"] == "Renamed"
        assert (render_report(objective, "json"), render_report(zero, "json")) == old

    def test_equality_hash_and_repr_ignore_the_kept_text(self) -> None:
        rendered, twin = _fresh_set(), _fresh_set()
        render_report(rendered, "json")
        assert "_json" in vars(rendered) and "_json" not in vars(twin)
        assert rendered == twin and hash(rendered) == hash(twin) and repr(rendered) == repr(twin)
        assert rendered._values == twin._values

    def test_the_text_dies_with_its_record_and_the_module_tables_stay_put(self) -> None:
        render_report(hardy_lhv_feasibility(_fresh_set()), "json")
        render_report(locality_violation_report(_fresh_set()), "json")  # every type and depth seen once
        sizes = len(_EMITTERS), len(_PADS), _kept_tables()
        report = locality_violation_report(_fresh_set())
        render_report(report, "json")
        refs = [weakref.ref(report), weakref.ref(report.property1.constraint_set)]
        del report
        assert [ref() for ref in refs] == [None, None]
        for i in range(50):
            cs = _fresh_set(f"Z{i}")
            render_report(locality_violation_report(cs), "json")
            render_report(hardy_lhv_feasibility(cs), "json")
        assert (len(_EMITTERS), len(_PADS), _kept_tables()) == sizes


#: sha256 of the bytes below, recorded before a kept text was stored per depth and key heads and enum texts were encoded once.
LOGIC_RENDER_DIGEST = "afd00542a4146962442e7431c00f29a2edc8049cd87e99423c8751478b75c7ce"

_EVENTS = [((sl, sr), (ol, orr)) for sl in (Setting.L1, Setting.L2) for sr in (Setting.R1, Setting.R2) for ol in Outcome for orr in Outcome]


def test_logic_report_bytes_match_the_recorded_digest() -> None:
    """Locality and LHV JSON for the Hardy set, its four drop-one variants and seeded sets, 2,000 in all, hash as recorded.

    The seeded sets are drawn as the benchmark's ``logic`` workload draws them: 1-3 zeros and 0-2 positivity events
    among the 16 joint events. Every other set renders its LHV report first, so the text a constraint set keeps at one
    depth is also reused at the other.
    """
    rng = random.Random(20261020)
    hardy = hardy_constraint_set()
    sets = [hardy] + [hardy.without(c.label) for c in hardy.zeros + hardy.positivity]
    while len(sets) < 2000:
        nz, npos = rng.randint(1, 3), rng.randint(0, 2)
        constraints = [Constraint(f"Eq{i + 1}", *event) for i, event in enumerate(rng.sample(_EVENTS, nz + npos))]
        sets.append(ConstraintSet(zeros=constraints[:nz], positivity=constraints[nz:]))
    digest = hashlib.sha256()
    for i, cs in enumerate(sets):
        reports = locality_violation_report(cs), hardy_lhv_feasibility(cs)
        for report in reports[::-1] if i % 2 else reports:
            digest.update(render_report(report, "json"))
    assert digest.hexdigest() == LOGIC_RENDER_DIGEST


class TestRenderReport:
    def test_render_is_pure(self) -> None:
        table = joint_probability_table(build_hardy_configuration(0.5))
        assert render_report(table, "csv") == render_report(table, "csv")
        report = verify_hardy_predictions(table)
        assert render_report(report, "json") == render_report(report, "json")

    def test_unknown_format_rejected(self) -> None:
        table = joint_probability_table(build_hardy_configuration(0.5))
        with pytest.raises(UsageError):
            render_report(table, "yaml")

    def test_csv_restricted_to_tables(self) -> None:
        report = verify_hardy_predictions(joint_probability_table(build_hardy_configuration(0.5)))
        with pytest.raises(UsageError):
            render_report(report, "csv")

    def test_csv_round_trips_probabilities_exactly(self) -> None:
        table = joint_probability_table(build_hardy_configuration(0.5))
        lines = render_report(table, "csv").decode("utf-8").strip().split("\n")[1:]
        parsed = [float(line.rsplit(",", 1)[1]) for line in lines]
        assert parsed == [r["probability"] for r in table.records()]

    def test_table_type_is_exported(self) -> None:
        table = joint_probability_table(build_hardy_configuration(0.5))
        assert isinstance(table, JointProbabilityTable)
