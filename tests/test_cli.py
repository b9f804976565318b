"""End-to-end tests of the command-line interface and report rendering."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from hardycheck import (
    Constraint,
    ConstraintSet,
    JointProbabilityTable,
    Outcome,
    Setting,
    UsageError,
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
    validate_basis,
    verify_hardy_predictions,
)
from hardycheck.cli import main

PI_6 = "0.5235987755982988"
GOLDEN = Path(__file__).parent / "golden"


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

    @pytest.mark.parametrize("theta", ["0", "1.5707963267948966", "2.5", "-0.3", "nan"])
    def test_out_of_range_theta_is_usage_error(self, capsys, theta: str) -> None:
        code, _, err = run(capsys, "verify", "--theta", theta)
        assert code == 2
        assert "theta" in err

    def test_nonpositive_tol_is_usage_error(self, capsys) -> None:
        code, _, err = run(capsys, "table", "--tol", "-1e-9")
        assert code == 2
        assert "tol" in err

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

    def test_json_floats_carry_17_significant_digits(self, capsys) -> None:
        _, out, _ = run(capsys, "verify", "--theta", PI_6, "--format", "json")
        payload = json.loads(out)
        rendered = format(payload["p4_positive"], ".17g")
        assert rendered in out


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.iterdir()))
def test_stdout_matches_golden_bytes(capsys, golden: str) -> None:
    stem, fmt = golden.rsplit(".", 1)
    command, _, theta = stem.partition("-theta")
    argv = [command, "--format", fmt] + (["--theta", theta] if theta else [])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


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
        validate_basis(config.basis(Setting.L1)),
    ]


@pytest.mark.parametrize("report", _every_report(), ids=lambda r: type(r).__name__)
def test_every_report_renders_as_json_and_text(report: object) -> None:
    payload = json.loads(render_report(report, "json"))
    assert isinstance(payload, list if isinstance(report, JointProbabilityTable) else dict)
    assert payload
    text = render_report(report, "text").decode("utf-8")
    assert text.endswith("\n") and text.strip()


class TestRenderReport:
    def test_render_is_pure(self) -> None:
        table = joint_probability_table(build_hardy_configuration(0.5))
        assert render_report(table, "csv") == render_report(table, "csv")
        report = verify_hardy_predictions(table)
        assert render_report(report, "json") == render_report(report, "json")

    def test_no_signalling_report_renders(self) -> None:
        report = no_signalling_check(joint_probability_table(build_hardy_configuration(0.5)))
        assert b"max marginal deviation" in render_report(report, "text")
        assert json.loads(render_report(report, "json"))["passed"] is True

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
