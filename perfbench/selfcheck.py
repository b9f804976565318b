"""Self-check of the benchmark: oracles reject wrong answers, inputs follow the seed.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

Every oracle must accept the program's own correct output and reject a
perturbed copy of it (a bumped table entry, a flipped verdict, a changed
byte, a wrong exit code). The input generators must repeat for one seed and
differ across seeds. The tracer must report a wrapped name that has gone
missing as absent, not as zero. run.py runs this before every benchmark run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hardycheck as hc  # noqa: E402
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

results: list[tuple[str, bool]] = []


def accepts(name: str, problems: list[str]) -> None:
    results.append((f"accepts {name}" + (f": {problems}" if problems else ""), not problems))


def rejects(name: str, problems: list[str]) -> None:
    results.append((f"rejects {name}", bool(problems)))


def bump(records: list[dict], key: tuple[str, str], delta: float, partner: str) -> list[dict]:
    """Move ``delta`` of probability from ``partner`` to ``key`` within one row (the row sum holds)."""
    out = [dict(r) for r in records]
    for r in out:
        if (r["setting_pair"], r["outcome_pair"]) == key:
            r["probability"] += delta
        if (r["setting_pair"], r["outcome_pair"]) == (key[0], partner):
            r["probability"] -= delta
    return out


def check_sweep_oracle() -> None:
    theta = 0.3
    table = hc.joint_probability_table(hc.build_hardy_configuration(theta))
    pred, ns, records = hc.verify_hardy_predictions(table), hc.no_signalling_check(table), table.records()
    accepts("sweep output", oracles.check_sweep(theta, records, pred, ns))
    unbalanced = [dict(r) for r in records]
    unbalanced[0]["probability"] += 1e-9
    rejects("a bumped table entry", oracles.check_sweep(theta, unbalanced, None, None))
    rejects("a shifted p4", oracles.check_sweep(theta, bump(records, ("L1,R1", "-+"), 1e-7, "++"), None, None))
    rejects("a raised zero", oracles.check_sweep(theta, bump(records, ("L2,R2", "-+"), 2e-10, "++"), None, None))
    flipped = dataclasses.replace(pred, verdicts=(*pred.verdicts[:3], not pred.verdicts[3]))
    rejects("a flipped Eq4 verdict", oracles.check_sweep(theta, records, flipped, ns))
    rejects("a failed no-signalling report", oracles.check_sweep(theta, records, pred, dataclasses.replace(ns, passed=False)))


def check_logic_oracle() -> None:
    wl = workloads.Logic(hc, ROOT)
    for case in wl.hardy_variants():
        accepts(f"logic output for {[c[0] for c in case[0] + case[1]]}", wl.check(case, wl.op(case)))
    full = wl.hardy_variants()[0]
    locality, feasibility, lj, fj = wl.op(full)
    truth = oracles.logic_truth(oracles.HARDY_ZEROS, oracles.HARDY_POSITIVE)
    flipped = dataclasses.replace(locality, violation=not locality.violation)
    rejects("a flipped locality flag", oracles.check_logic(truth, flipped, feasibility, lj, fj))
    flipped = dataclasses.replace(feasibility, feasible=not feasibility.feasible)
    rejects("a flipped LHV verdict", oracles.check_logic(truth, locality, flipped, lj, fj))
    edited = lj.replace(b'"violation": true', b'"violation": false', 1)
    rejects("a flipped flag in rendered JSON", oracles.check_logic(truth, locality, feasibility, edited, fj))
    miscounted = dict(truth, admissible_count=truth["admissible_count"] + 1)
    rejects("a wrong admissible count", oracles.check_logic(miscounted, locality, feasibility, lj, fj))


def check_optimize_oracle() -> None:
    report = hc.maximize_paradox(0.2, 0.9, 1e-8)
    accepts("optimize output", oracles.check_optimize(0.2, 0.9, report.theta_star, report.p4_max))
    rejects("p4_max off by 1e-7", oracles.check_optimize(0.2, 0.9, report.theta_star, report.p4_max - 1e-7))
    rejects("theta_star outside the bracket", oracles.check_optimize(0.5, 0.9, report.theta_star, report.p4_max))


def check_cli_oracle() -> None:
    wl = workloads.Cli(hc, ROOT, {}, trace=False)
    case = {"kind": "valid", "command": "lhv", "fmt": "json"}
    good = bytes(hc.render_report(hc.hardy_lhv_feasibility(), "json"))
    accepts("a correct lhv process", wl.check(case, (0, good, b"", None)))
    rejects("a wrong exit code", wl.check(case, (1, good, b"", None)))
    rejects("one changed stdout byte", wl.check(case, (0, good.replace(b"false", b"fals3", 1), b"", None)))
    rejects("a traceback", wl.check(case, (0, good, b"Traceback (most recent call last):\n  ...\nValueError: x\n", None)))
    usage = {"kind": "usage", "class": "unknown_command", "argv": ["frobnicate"]}
    accepts("a clean usage error", wl.check(usage, (2, b"", b"error: invalid choice\n", None)))
    rejects("a usage error with exit 0", wl.check(usage, (0, b"", b"error: invalid choice\n", None)))
    rejects("a two-line usage error", wl.check(usage, (2, b"", b"error: a\nerror: b\n", None)))
    tol_inf = {"kind": "tol_inf", "command": "optimize", "fmt": "json", "tol": "inf"}
    accepts("optimize at the optimum", wl.check(tol_inf, (0, json.dumps({"p4_max": oracles.P4_STAR}).encode(), b"", None)))
    rejects("optimize 2e-4 below the optimum", wl.check(tol_inf, (0, b'{"p4_max": 0.08997}', b"", None)))
    out_case = {"kind": "valid", "command": "lhv", "fmt": "json", "out": "x"}
    accepts("a correct --out file", wl.check(out_case, (0, b"", b"", good)))
    rejects("a missing --out file", wl.check(out_case, (0, b"", b"", None)))


def check_known_defects() -> None:
    tiny = oracles.known_defect("sweep", 1e-250, ["x"], OverflowError())
    results.append(("tiny-theta OverflowError is the known defect", tiny == "overflow_small_theta"))
    results.append(("OverflowError at theta=0.3 is a new failure", oracles.known_defect("sweep", 0.3, ["x"], OverflowError()) is None))
    results.append(("a wrong table is a new failure", oracles.known_defect("sweep", 1e-250, ["p4 off"], None) is None))


def check_generators() -> None:
    for name in ("sweep", "optimize", "logic", "cli"):
        wl = workloads.make(name, hc, ROOT / ".perfbench_out", {}, trace=False)

        def first(seed, n=6):
            blocks = wl.inputs(seed)
            return [repr(next(blocks)) for _ in range(n)]

        results.append((f"{name} inputs repeat for one seed", first(1) == first(1)))
        results.append((f"{name} inputs differ across seeds", first(1) != first(2)))
    blocks = workloads.Sweep(hc, ROOT).inputs(7)
    thetas = [t for _ in range(30) for t in next(blocks)]
    lo, hi = math.log10(workloads.ZERO_FLOOR), math.log10(workloads.ENDPOINT_SPAN)
    lowest_third = sum(t < 10 ** (lo + (hi - lo) / 3) for t in thetas)
    results.append((f"sweep: one lowest-third endpoint angle per three blocks (got {lowest_third} in 30)", lowest_third == 10))
    results.append(("sweep: no timed angle in the known overflow range", min(thetas) >= oracles.OVERFLOW_THETA))
    probes = [theta for _, theta in workloads.Sweep(hc, ROOT).defect_probes()]
    results.append(("sweep: every overflow probe lies in the overflow range", max(probes) < oracles.OVERFLOW_THETA))


def check_tracer() -> None:
    original = hc.hardy.born_joint_probability
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.begin_op()
        hc.no_signalling_check(hc.joint_probability_table(hc.build_hardy_configuration(0.3)))
        tr.end_op()
    finally:
        tr.uninstall()
    layers = tracing.layer_metrics(tr, {})
    results.append(("tracer counts 16 Born calls in a table", layers["quantum.born_calls_per_op"] == 16))
    results.append(("tracer counts 32 basis validations in a table", layers["quantum.validate_basis_calls_per_op"] == 32))
    results.append(("tracer restores the package", hc.hardy.born_joint_probability is original))
    saved = hc.lhv.strategy_satisfies
    del hc.lhv.strategy_satisfies
    try:
        tr = tracing.Tracer()
        tr.install()
        tr.uninstall()
    finally:
        hc.lhv.strategy_satisfies = saved
    layers = tracing.layer_metrics(tr, {})
    results.append(("a missing name is reported absent", tr.absent == ["lhv.strategy_satisfies"]))
    results.append(("a metric of a missing name is left out, not zero", "lhv.strategies_scanned_per_op" not in layers))


def main() -> int:
    checks = (check_sweep_oracle, check_logic_oracle, check_optimize_oracle, check_cli_oracle)
    for check in checks + (check_known_defects, check_generators, check_tracer):
        check()
    failed = [name for name, ok in results if not ok]
    for name in failed:
        print(f"selfcheck FAILED: {name}", file=sys.stderr)
    print(f"selfcheck: {len(results) - len(failed)} of {len(results)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
