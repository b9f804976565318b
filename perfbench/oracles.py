"""Correctness oracles owned by the benchmark.

Each oracle recomputes the expected answer without calling hardycheck:
closed forms for the Born table and the optimizer, and brute-force
enumeration for the counterfactual and local-strategy logic. An oracle
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

#: Tolerances the benchmark holds the program to.
ZERO_TOL = 1e-10  # each of the three constrained events
ROW_TOL = 1e-12  # each setting-pair row sums to 1
ENTRY_SLACK = 1e-15  # entries may sit this far outside [0, 1]
P4_ABS_TOL = 1e-14  # p4 matches the closed form within abs or rel tolerance
P4_REL_TOL = 1e-9
NO_SIGNALLING_TOL = 1e-12
OPTIMUM_TOL = 1e-8  # p4_max against the closed-form maximum

#: Closed-form optimum of the paradox probability and its two maximizers.
P4_STAR = (5 * math.sqrt(5) - 11) / 2
PEAKS = (0.5 * math.asin(3 - math.sqrt(5)), math.pi / 2 - 0.5 * math.asin(3 - math.sqrt(5)))

#: theta below this makes g**3 overflow in build_hardy_configuration today.
OVERFLOW_THETA = 1e-200

SETTING_PAIRS = ("L1,R1", "L1,R2", "L2,R1", "L2,R2")
OUTCOME_PAIRS = ("++", "+-", "-+", "--")
#: (setting pair, outcome pair) of Eq1..Eq3 (zeros) and Eq4 (paradox event).
HARDY_ZEROS = (("L2", "R2", "-", "+"), ("L2", "R1", "+", "+"), ("L1", "R2", "-", "-"))
HARDY_POSITIVE = (("L1", "R1", "-", "+"),)


def p4_closed_form(theta: float) -> float:
    a = math.cos(theta)
    b = math.sin(theta)
    return (a * b * (b - a) / (1.0 - a * b)) ** 2


def p4_mismatch(p4: float, theta: float) -> float:
    """Distance of p4 from the closed form beyond the abs-or-rel tolerance (<= 0 when it matches)."""
    ref = p4_closed_form(theta)
    return abs(p4 - ref) - max(P4_ABS_TOL, P4_REL_TOL * ref)


def _check_prediction(theta: float, zeros: list[float], p4: float, pred: object) -> list[str]:
    problems = []
    reported = (pred.p1_zero, pred.p2_zero, pred.p3_zero, pred.p4_positive)
    if reported != (*zeros, p4):
        problems.append(f"prediction report {reported} disagrees with the table")
    verdicts = tuple(pred.verdicts)
    if verdicts[:3] != (True, True, True):
        problems.append(f"zero verdicts {verdicts[:3]} should all hold")
    ref = p4_closed_form(theta)
    # Only decide Eq4 when the closed form is clear of the threshold.
    if abs(ref - pred.tol) > max(P4_ABS_TOL, P4_REL_TOL * ref) and verdicts[3] != (ref > pred.tol):
        problems.append(f"Eq4 verdict {verdicts[3]} but closed-form p4 {ref!r} vs tol {pred.tol!r}")
    return problems


def check_sweep(theta: float, records: list[dict], pred: object | None, ns: object | None) -> list[str]:
    """Table records, and the prediction and no-signalling reports when given, at one angle."""
    problems = []
    table = {(r["setting_pair"], r["outcome_pair"]): float(r["probability"]) for r in records}
    if len(records) != 16 or set(table) != {(s, o) for s in SETTING_PAIRS for o in OUTCOME_PAIRS}:
        return ["table does not hold the 16 setting/outcome entries"]
    for key, p in table.items():
        if not (math.isfinite(p) and -ENTRY_SLACK <= p <= 1 + ENTRY_SLACK):
            problems.append(f"entry {key} = {p!r} outside [0, 1]")
    for s in SETTING_PAIRS:
        row = sum(table[(s, o)] for o in OUTCOME_PAIRS)
        if abs(row - 1.0) > ROW_TOL:
            problems.append(f"row {s} sums to {row!r}")
    zeros = [table[(f"{sl},{sr}", ol + orr)] for sl, sr, ol, orr in HARDY_ZEROS]
    p4 = table[("L1,R1", "-+")]
    for i, z in enumerate(zeros, 1):
        if not z < ZERO_TOL:
            problems.append(f"Eq{i} = {z!r} not below {ZERO_TOL}")
    if p4_mismatch(p4, theta) > 0:
        problems.append(f"p4 = {p4!r} but closed form gives {p4_closed_form(theta)!r}")
    if pred is not None:
        problems += _check_prediction(theta, zeros, p4, pred)
    worst = 0.0
    for side, own, other in (("L", ("L1", "L2"), ("R1", "R2")), ("R", ("R1", "R2"), ("L1", "L2"))):
        for setting in own:
            for outcome in "+-":
                marginals = []
                for remote in other:
                    pair = f"{setting},{remote}" if side == "L" else f"{remote},{setting}"
                    ops = [o for o in OUTCOME_PAIRS if o[0 if side == "L" else 1] == outcome]
                    marginals.append(sum(table[(pair, o)] for o in ops))
                worst = max(worst, abs(marginals[0] - marginals[1]))
    if worst > NO_SIGNALLING_TOL:
        problems.append(f"marginals shift by {worst!r} with the remote setting")
    if ns is not None and (not ns.passed or not ns.max_deviation <= NO_SIGNALLING_TOL):
        problems.append(f"no-signalling report passed={ns.passed} max_deviation={ns.max_deviation!r}")
    return problems


# --- counterfactual and local-strategy logic, by brute force -------------

_SLOTS = ("L1", "L2", "L1R1", "L1R2", "L2R1", "L2R2")


def _assignments(n: int):
    for i in range(2**n):
        yield tuple("-" if (i >> (n - 1 - k)) & 1 else "+" for k in range(n))


def _instance_realizes(inst: tuple, event: tuple) -> bool:
    sl, sr, ol, orr = event
    return inst[_SLOTS.index(sl)] == ol and inst[_SLOTS.index(sl + sr)] == orr


def _strategy_realizes(strat: tuple, event: tuple) -> bool:
    sl, sr, ol, orr = event
    return strat[("L1", "L2", "R1", "R2").index(sl)] == ol and strat[("L1", "L2", "R1", "R2").index(sr)] == orr


def logic_truth(zeros: tuple, positivity: tuple) -> dict:
    """Enumerate the 64 instances and the 16 local strategies for one constraint set."""
    admissible = [i for i in _assignments(6) if not any(_instance_realizes(i, z) for z in zeros)]
    # SR at context c: premise o_R(c,R2) = +, conclusion o_R(c,R1) = -.
    p1 = all(not (i[_SLOTS.index("L2R2")] == "+") or i[_SLOTS.index("L2R1")] == "-" for i in admissible)
    witnesses = [
        i
        for i in admissible
        if all(_instance_realizes(i, p) for p in positivity)
        and i[_SLOTS.index("L1R2")] == "+"
        and i[_SLOTS.index("L1R1")] == "+"
    ]
    lhv = [
        s
        for s in _assignments(4)
        if not any(_strategy_realizes(s, z) for z in zeros) and all(_strategy_realizes(s, p) for p in positivity)
    ]
    return {
        "admissible_count": len(admissible),
        "property1": p1,
        "property2": bool(witnesses),
        "witness_count": len(witnesses),
        "violation": p1 and bool(admissible) and bool(witnesses),
        "lhv_feasible": bool(lhv),
        "lhv_witness_count": len(lhv),
    }


def check_logic(truth: dict, locality, feasibility, locality_json: bytes | None, feasibility_json: bytes | None) -> list[str]:
    """Locality report, LHV feasibility and both JSON renderings (each may be None) against the enumeration."""
    got = {}
    if locality is not None:
        got.update(
            admissible_count=len(locality.property1.admissible),
            property1=locality.property1.holds,
            property2=locality.property2.witness_found,
            witness_count=locality.property2.witness_count,
            violation=locality.violation,
        )
    if feasibility is not None:
        got.update(lhv_feasible=feasibility.feasible, lhv_witness_count=len(feasibility.witnesses))
    problems = [f"{k}: program says {v!r}, enumeration says {truth[k]!r}" for k, v in got.items() if v != truth[k]]
    if locality_json is None:
        return problems
    try:
        lj = json.loads(locality_json)
        fj = json.loads(feasibility_json)
        rendered = {
            "admissible_count": lj["property1"]["admissible_count"],
            "property1": lj["property1"]["holds"],
            "property2": lj["property2"]["witness_found"],
            "witness_count": lj["property2"]["witness_count"],
            "violation": lj["violation"],
            "lhv_feasible": fj["feasible"],
            "lhv_witness_count": fj["witness_count"],
        }
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"rendered JSON unreadable: {exc!r}"]
    return problems + [f"rendered {k}: {v!r}, enumeration says {truth[k]!r}" for k, v in rendered.items() if v != truth[k]]


# --- optimizer -------------------------------------------------------------


def check_optimize(lo: float, hi: float, theta_star: float, p4_max: float) -> list[str]:
    """The bracket holds a peak, so the maximum over it is the closed-form optimum."""
    problems = []
    if not abs(p4_max - P4_STAR) <= OPTIMUM_TOL:
        problems.append(f"p4_max {p4_max!r} misses the optimum {P4_STAR!r} by {abs(p4_max - P4_STAR):.3e}")
    if not lo <= theta_star <= hi:
        problems.append(f"theta_star {theta_star!r} outside [{lo!r}, {hi!r}]")
    elif abs(p4_closed_form(theta_star) - p4_max) > P4_ABS_TOL:
        problems.append(f"p4_max {p4_max!r} is not the closed-form value at theta_star {theta_star!r}")
    return problems


# --- command line ----------------------------------------------------------


def check_cli(case: dict, code: int, stdout: bytes, stderr: bytes, out_file: bytes | None, expected: dict) -> list[str]:
    """One CLI process against the outcome the benchmark expects.

    ``expected`` holds ``codes`` (accepted exit codes) and, when the
    in-process library call succeeded, ``report`` (the bytes render_report
    gives for it). A usage or run error must be one ``error:`` line on stderr.
    ``optimum`` asks instead that a successful optimize report the optimum.
    """
    problems = []
    if b"Traceback" in stderr:
        last = stderr.strip().splitlines()[-1].decode(errors="replace") if stderr.strip() else ""
        return [f"traceback on stderr: {last}"]
    if code not in expected["codes"]:
        problems.append(f"exit code {code}, expected one of {sorted(expected['codes'])}")
    lines = stderr.decode(errors="replace").splitlines()
    written = stdout if case.get("out") is None else out_file
    if case.get("out") is not None and stdout:
        problems.append("stdout not empty although --out was given")
    if "report" in expected and code in (0, 1) and written != expected["report"]:
        problems.append("report bytes differ from render_report of the same library call")
    optimum_reported = expected.get("optimum") and code == 0
    if code == 2 or ("report" not in expected and not optimum_reported):
        if stdout or len(lines) != 1 or not lines[0].startswith("error: "):
            problems.append(f"expected a one-line 'error:' message, got stdout {len(stdout)} B, stderr {lines!r}")
    if optimum_reported:
        try:
            p4 = float(json.loads(written)["p4_max"])
        except (ValueError, KeyError, TypeError):
            return problems + ["optimize report unreadable"]
        if not abs(p4 - P4_STAR) <= OPTIMUM_TOL:
            problems.append(f"p4_max {p4!r} misses the optimum by {abs(p4 - P4_STAR):.3e}")
    return problems


def known_defect(workload: str, case: object, problems: list[str], error: BaseException | None = None) -> str | None:
    """Name the recorded defect that explains a failure, or None for a new failure."""
    text = " ".join(problems)
    if workload == "sweep":
        if isinstance(error, OverflowError) and case < OVERFLOW_THETA:
            return "overflow_small_theta"
        return None
    if workload != "cli":
        return None
    kind = case["kind"]
    if kind == "valid" and case.get("theta", 1.0) < OVERFLOW_THETA and "OverflowError" in text:
        return "overflow_small_theta"
    if kind == "out_missing" and "FileNotFoundError" in text:
        return "out_missing_dir"
    if kind == "tol_inf" and "misses the optimum" in text:
        return "optimize_tol_inf"
    return None
