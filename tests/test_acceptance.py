"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here; timing bounds are measured after a warm-up
call so imports and caches do not count against them.
"""

from __future__ import annotations

import math
import time

import numpy as np

from hardycheck import (
    Outcome,
    Setting,
    build_hardy_configuration,
    check_property1,
    check_property2,
    enumerate_strategies,
    evaluate_sr,
    from_hardy_notation,
    hardy_constraint_set,
    hardy_lhv_feasibility,
    joint_probability_table,
    locality_violation_report,
    maximize_paradox,
    no_signalling_check,
    paradox_probability,
    realizes,
    satisfies_zeros,
    strategy_realizes,
    strategy_satisfies,
    to_hardy_notation,
)

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS

THETA_GRID = np.linspace(0.01, math.pi / 2 - 0.01, 50)
P4_LITERATURE = (5.0 * math.sqrt(5.0) - 11.0) / 2.0


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_prediction_suite_on_grid() -> None:
    build_hardy_configuration(0.5)  # warm-up
    start = time.perf_counter()
    worst_zero = 0.0
    min_p4_away_from_quarter_pi = 1.0
    for theta in THETA_GRID:
        table = joint_probability_table(build_hardy_configuration(float(theta)))
        worst_zero = max(
            worst_zero,
            table.probability(Setting.L2, Setting.R2, MINUS, PLUS),
            table.probability(Setting.L2, Setting.R1, PLUS, PLUS),
            table.probability(Setting.L1, Setting.R2, MINUS, MINUS),
        )
        p4 = table.probability(Setting.L1, Setting.R1, MINUS, PLUS)
        if abs(theta - math.pi / 4) >= 1e-3:
            min_p4_away_from_quarter_pi = min(min_p4_away_from_quarter_pi, p4)
    elapsed = time.perf_counter() - start
    passed = worst_zero < 1e-10 and min_p4_away_from_quarter_pi > 1e-6 and elapsed < 1.0
    _report(
        1,
        passed,
        f"50-angle grid: worst zero {worst_zero:.2e}, min p4 {min_p4_away_from_quarter_pi:.2e}, {elapsed:.3f} s",
    )


def test_criterion_2_no_signalling_on_grid() -> None:
    worst = 0.0
    for theta in THETA_GRID:
        report = no_signalling_check(joint_probability_table(build_hardy_configuration(float(theta))))
        worst = max(worst, report.max_deviation)
    passed = worst < 1e-12
    _report(2, passed, f"max marginal deviation across remote settings {worst:.2e}")


def test_criterion_3_property1_exhaustive() -> None:
    cs = hardy_constraint_set()
    check_property1(cs)  # warm-up (fills the instance cache)
    start = time.perf_counter()
    report = check_property1(cs)
    elapsed = time.perf_counter() - start
    all_true = all(evaluate_sr(inst, Setting.L2).sr_value for inst in report.admissible)
    passed = report.holds is True and all_true and len(report.admissible) > 0 and elapsed < 0.010
    _report(
        3,
        passed,
        f"SR true at L2 in {len(report.admissible)}/{len(report.admissible)} zero-satisfying instances, "
        f"{elapsed * 1e3:.2f} ms",
    )


def test_criterion_4_property2_witness() -> None:
    cs = hardy_constraint_set()
    report = check_property2(cs)
    witness = report.witness
    passed = (
        report.witness_found is True
        and satisfies_zeros(witness, cs)
        and realizes(witness, cs.constraint("Eq4"))
        and evaluate_sr(witness, Setting.L1).sr_value is False
    )
    _report(4, passed, f"witness #{witness.index} {witness} falsifies SR at L1")


def test_criterion_5_locality_violation_flag() -> None:
    report = locality_violation_report(hardy_constraint_set())
    passed = (
        report.violation is True
        and report.sr_always_true_at_l2 is True
        and report.sr_sometimes_false_at_l1 is True
    )
    _report(5, passed, "SR forced at choice L2 and falsified at choice L1 across the admitted instances")


def test_criterion_6_lhv_infeasibility() -> None:
    cs = hardy_constraint_set()
    eq4 = cs.constraint("Eq4")
    hardy_lhv_feasibility(cs)  # warm-up
    start = time.perf_counter()
    surviving = [
        s for s in enumerate_strategies() if strategy_satisfies(s, cs) and strategy_realizes(s, eq4)
    ]
    full = hardy_lhv_feasibility(cs)
    drops_feasible = all(hardy_lhv_feasibility(cs.without(label)).feasible for label in ("Eq1", "Eq2", "Eq3"))
    elapsed = time.perf_counter() - start
    passed = len(surviving) == 0 and full.feasible is False and drops_feasible and elapsed < 0.010
    _report(
        6,
        passed,
        f"{len(surviving)}/16 strategies survive the full set; every single-zero drop is feasible; "
        f"{elapsed * 1e3:.2f} ms",
    )


def _grid_oracle_maximum() -> float:
    grid = np.arange(0.01, math.pi / 2 - 0.01, 1e-5)
    a, b = np.cos(grid), np.sin(grid)
    values = (a * b * (b - a) / (1.0 - a * b)) ** 2
    k = int(np.argmax(values))
    fine = np.linspace(grid[k] - 1e-5, grid[k] + 1e-5, 20001)
    fa, fb = np.cos(fine), np.sin(fine)
    return float(np.max((fa * fb * (fb - fa) / (1.0 - fa * fb)) ** 2))


def test_criterion_7_optimizer_against_grid_oracle() -> None:
    maximize_paradox(lo=0.3, hi=0.6, tol=1e-6)  # warm-up
    start = time.perf_counter()
    oracle = _grid_oracle_maximum()
    report = maximize_paradox()
    elapsed = time.perf_counter() - start
    gap = abs(report.p4_max - oracle)
    anchor_gap = abs(oracle - P4_LITERATURE)
    passed = gap <= 1e-6 and anchor_gap < 1e-9 and elapsed < 5.0
    _report(
        7,
        passed,
        f"p4_max {report.p4_max:.10f} vs grid oracle {oracle:.10f} (gap {gap:.2e}, "
        f"anchor gap {anchor_gap:.2e}), {elapsed:.3f} s",
    )


def test_criterion_8_notation_bijection() -> None:
    pairs = [(s, o) for s in Setting for o in (PLUS, MINUS)]
    labels = [to_hardy_notation(s, o) for s, o in pairs]
    round_trip = all(from_hardy_notation(to_hardy_notation(s, o)) == (s, o) for s, o in pairs)
    expected_map = len(set(labels)) == 8 and set(labels) == {"c1", "d1", "v1", "u1", "d2", "c2", "u2", "v2"}
    zero_pairs_match = (
        (to_hardy_notation(Setting.R2, PLUS), to_hardy_notation(Setting.L2, MINUS)) == ("u2", "u1")
        and (to_hardy_notation(Setting.L2, PLUS), to_hardy_notation(Setting.R1, PLUS)) == ("v1", "d2")
        and (to_hardy_notation(Setting.L1, MINUS), to_hardy_notation(Setting.R2, MINUS)) == ("d1", "v2")
    )
    passed = round_trip and expected_map and zero_pairs_match
    _report(8, passed, "8-way label bijection round-trips; zeros map to (u2,u1), (v1,d2), (d1,v2)")


def test_criterion_9_flat_slope_at_the_maximizer() -> None:
    report = maximize_paradox()
    h = 1e-5
    estimate = (paradox_probability(report.theta_star + h) - paradox_probability(report.theta_star - h)) / (2.0 * h)
    passed = abs(estimate) < 1e-4
    _report(9, passed, f"|central difference| at theta* = {abs(estimate):.2e} with h = 1e-5")
