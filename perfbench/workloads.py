"""Seeded inputs, the operation and its oracle check for each workload.

Inputs come from ``random.Random`` seeded with the workload name and the
seed, in blocks whose composition is fixed by ``spec.json``; only the order
and the drawn values depend on the seed. The program sees only the inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import oracles

SPEC = json.loads((Path(__file__).parent / "spec.json").read_text())

MIN_NORMAL = 2.2250738585072014e-308
ZERO_FLOOR = oracles.OVERFLOW_THETA  # timed inputs stay above the known overflow; it is probed apart
HALF_PI_GAP = math.pi / 2 - math.nextafter(math.pi / 2, 0.0)
ENDPOINT_SPAN = 0.1
STRATA = 3
DEFAULT_BRACKET = (0.01, math.pi / 2 - 0.01)
CLI_TIMEOUT_S = 60


def draw_theta(rng: random.Random, kind: str, block: int = 0) -> float:
    """An angle strictly inside (0, pi/2): uniform, or log-uniform toward one endpoint.

    Toward zero the draws stop at ZERO_FLOOR, above the angles that overflow
    today; those are run as known-defect probes (``Workload.defect_probes``).
    Endpoint draws are stratified over blocks: block k draws from the
    (k mod 3)-th third of the log range, so every three blocks cover it evenly.
    """
    u = (block % STRATA + rng.random()) / STRATA
    if kind == "toward_zero":
        lo, hi = math.log10(ZERO_FLOOR), math.log10(ENDPOINT_SPAN)
        return max(10 ** (lo + u * (hi - lo)), ZERO_FLOOR)
    if kind == "toward_half_pi":
        lo, hi = math.log10(HALF_PI_GAP), math.log10(ENDPOINT_SPAN)
        return min(math.pi / 2 - 10 ** (lo + u * (hi - lo)), math.nextafter(math.pi / 2, 0.0))
    while True:
        theta = rng.uniform(0.0, math.pi / 2)
        if 0.0 < theta < math.pi / 2:
            return theta


def _blocks(name: str, seed: int, make_block):
    """Endless blocks of inputs; ``make_block(rng, k)`` fixes the composition of block k."""
    rng = random.Random(f"{name}:{seed}")
    for k in itertools.count():
        block = make_block(rng, k)
        rng.shuffle(block)
        yield block


class Workload:
    name = ""
    in_process = True

    def __init__(self, hc, out_dir: Path) -> None:
        self.hc = hc  # the imported hardycheck package; attributes looked up per call
        self.out_dir = out_dir

    def inputs(self, seed: int):
        raise NotImplementedError

    def op(self, case):
        raise NotImplementedError

    def check(self, case, result) -> list[str]:
        raise NotImplementedError

    def finish(self, seed: int, n: int) -> dict[str, object]:
        """Facts about the first ``n`` inputs of the run, recorded with it."""
        return {}

    def defect_probes(self) -> list[tuple[str, object]]:
        """(known defect, input) pairs run once per run, outside the timed loop and its counts."""
        return []


class Sweep(Workload):
    name = "sweep"

    def __init__(self, hc, out_dir: Path) -> None:
        super().__init__(hc, out_dir)
        self.max_p4_rel_err = 0.0

    def inputs(self, seed: int):
        spec = SPEC["workloads"]["sweep"]
        kinds = [kind for kind in ("uniform", "toward_zero", "toward_half_pi") for _ in range(spec[kind])]
        return _blocks("sweep", seed, lambda rng, k: [draw_theta(rng, kind, k) for kind in kinds])

    def op(self, theta):
        hc = self.hc
        table = hc.joint_probability_table(hc.build_hardy_configuration(theta))
        return table, hc.verify_hardy_predictions(table), hc.no_signalling_check(table)

    def check(self, theta, result) -> list[str]:
        table, pred, ns = result
        records = table.records()
        problems = oracles.check_sweep(theta, records, pred, ns)
        ref = oracles.p4_closed_form(theta)
        if ref >= 1e-6:
            self.max_p4_rel_err = max(self.max_p4_rel_err, abs(pred.p4_positive - ref) / ref)
        return problems

    def finish(self, seed: int, n: int):
        return {"p4_max_rel_err": self.max_p4_rel_err}

    def defect_probes(self):
        return [("overflow_small_theta", theta) for theta in (1e-206, 1e-250, MIN_NORMAL)]


class Optimize(Workload):
    name = "optimize"

    def inputs(self, seed: int):
        tols = SPEC["workloads"]["optimize"]["tols"]

        def make_block(rng, k):
            def bracket(peak):
                return rng.uniform(0.01, peak - 0.05), rng.uniform(peak + 0.05, math.pi / 2 - 0.01)

            return [None] + [(*bracket(peak), tol) for peak in oracles.PEAKS for tol in tols]

        return _blocks("optimize", seed, make_block)

    def op(self, case):
        if case is None:
            return self.hc.maximize_paradox()
        return self.hc.maximize_paradox(*case)

    def check(self, case, report) -> list[str]:
        lo, hi = DEFAULT_BRACKET if case is None else case[:2]
        return oracles.check_optimize(lo, hi, report.theta_star, report.p4_max)


class Logic(Workload):
    name = "logic"

    EVENTS = tuple((sl, sr, ol, orr) for sl in ("L1", "L2") for sr in ("R1", "R2") for ol in "+-" for orr in "+-")

    def __init__(self, hc, out_dir: Path) -> None:
        super().__init__(hc, out_dir)
        # Only the five fixed sets are cached, so memory does not grow with the run.
        self.truth = {self.events(case): oracles.logic_truth(*self.events(case)) for case in self.hardy_variants()}

    @staticmethod
    def events(case) -> tuple:
        return tuple(tuple(c[2] for c in part) for part in case)

    @staticmethod
    def hardy_variants():
        """The Hardy set and its four drop-one variants, as (zeros, positivity)."""
        full = [(f"Eq{i + 1}", "z", e) for i, e in enumerate(oracles.HARDY_ZEROS)] + [("Eq4", "p", oracles.HARDY_POSITIVE[0])]
        sets = [full] + [[c for c in full if c is not drop] for drop in full]
        return [(tuple(c for c in s if c[1] == "z"), tuple(c for c in s if c[1] == "p")) for s in sets]

    def inputs(self, seed: int):
        spec = SPEC["workloads"]["logic"]

        def random_set(rng):
            nz, npos = rng.randint(1, 3), rng.randint(0, 2)
            events = rng.sample(self.EVENTS, nz + npos)
            labelled = [(f"Eq{i + 1}", "z" if i < nz else "p", e) for i, e in enumerate(events)]
            return (tuple(labelled[:nz]), tuple(labelled[nz:]))

        return _blocks("logic", seed, lambda rng, k: self.hardy_variants() + [random_set(rng) for _ in range(spec["random"])])

    def op(self, case):
        hc = self.hc
        zeros, positivity = case

        def constraint(label, event):
            sl, sr, ol, orr = event
            return hc.Constraint(label, (hc.Setting(sl), hc.Setting(sr)), (hc.Outcome(ol), hc.Outcome(orr)))

        cs = hc.ConstraintSet(
            zeros=tuple(constraint(label, e) for label, _, e in zeros),
            positivity=tuple(constraint(label, e) for label, _, e in positivity),
        )
        locality = hc.locality_violation_report(cs)
        feasibility = hc.hardy_lhv_feasibility(cs)
        return locality, feasibility, hc.render_report(locality, "json"), hc.render_report(feasibility, "json")

    def check(self, case, result) -> list[str]:
        key = self.events(case)
        truth = self.truth.get(key) or oracles.logic_truth(*key)
        return oracles.check_logic(truth, *result)

    def finish(self, seed: int, n: int) -> dict:
        """Share of the first ``n`` inputs whose constraint set appeared earlier in the run."""
        seen, repeated = set(), 0
        for case in itertools.islice(itertools.chain.from_iterable(self.inputs(seed)), n):
            repeated += case in seen
            seen.add(case)
        return {"repeated_set_share": repeated / max(n, 1)}


class Cli(Workload):
    """One cold CLI process per operation; the worker only launches and checks."""

    name = "cli"
    in_process = False
    VALID = (
        ("verify", "json"), ("verify", "text"),
        ("table", "json"), ("table", "csv"), ("table", "text"),
        ("counterfactual", "json"), ("counterfactual", "text"),
        ("lhv", "json"), ("lhv", "text"),
        ("optimize", "json"), ("optimize", "text"),
    )  # fmt: skip

    def __init__(self, hc, out_dir: Path, env: dict, trace: bool) -> None:
        super().__init__(hc, out_dir)
        self.env = env
        self.trace = trace  # run each process under cli_child.py, which writes its spans to a file
        self.expected_cache: dict = {}
        self.span_files: list[Path] = []

    def usage_argv(self, rng: random.Random, usage_class: str) -> list[str]:
        return {
            "unknown_command": lambda: ["frobnicate"],
            "no_command": lambda: [],
            "theta_out_of_range": lambda: ["verify", "--theta", rng.choice(["0", "-0.5", repr(math.pi / 2), "2", "inf", "nan"])],
            "theta_not_a_number": lambda: ["table", "--theta", "abc"],
            "tol_not_positive": lambda: ["verify", "--tol", rng.choice(["0", "-1e-10", "nan"])],
            "csv_for_report": lambda: [rng.choice(["verify", "counterfactual", "lhv", "optimize"]), "--format", "csv"],
            "unknown_format": lambda: ["lhv", "--format", "xml"],
        }[usage_class]()

    def inputs(self, seed: int):
        spec = SPEC["workloads"]["cli"]
        out_file = str(self.out_dir / "cli-out.txt")

        def make_block(rng, k):
            angled = [("verify", "json", None), ("verify", "text", None), ("table", "json", None)]
            angled += [("table", "csv", None), ("table", "text", None), ("verify", "json", out_file)]
            angled += [("verify", rng.choice(["json", "text"]), None), ("table", rng.choice(["json", "csv", "text"]), None)]
            kinds = ["toward_zero", "toward_half_pi"] + ["uniform"] * (len(angled) - 2)
            rng.shuffle(kinds)
            cases = []
            for (command, fmt, out), kind in zip(angled, kinds):
                case = {"kind": "valid", "command": command, "fmt": fmt, "theta": draw_theta(rng, kind, k)}
                cases.append(case if out is None else {**case, "out": out})
            cases += [{"kind": "valid", "command": c, "fmt": f} for c, f in self.VALID if c not in ("verify", "table")]
            cases.append({"kind": "tol_tiny", "command": "optimize", "fmt": "json", "tol": "1e-16"})
            for usage_class in rng.sample(spec["usage_classes"], spec["usage_per_block"]):
                cases.append({"kind": "usage", "class": usage_class, "argv": self.usage_argv(rng, usage_class)})
            return cases

        return _blocks("cli", seed, make_block)

    def defect_probes(self):
        missing = str(self.out_dir / "no-such-dir" / "report.txt")
        return [
            ("overflow_small_theta", {"kind": "valid", "command": "verify", "fmt": "json", "theta": 1e-250}),
            ("out_missing_dir", {"kind": "out_missing", "command": "verify", "fmt": "text", "out": missing}),
            ("optimize_tol_inf", {"kind": "tol_inf", "command": "optimize", "fmt": "json", "tol": "inf"}),
        ]

    @staticmethod
    def argv(case: dict) -> list[str]:
        if case["kind"] == "usage":
            return list(case["argv"])
        argv = [case["command"], "--format", case["fmt"]]
        if "theta" in case:
            argv += ["--theta", repr(case["theta"])]
        if "tol" in case:
            argv += ["--tol", case["tol"]]
        if "out" in case:
            argv += ["--out", case["out"]]
        return argv

    def op(self, case):
        out = case.get("out")
        if out is not None and Path(out).parent.is_dir():
            Path(out).unlink(missing_ok=True)
        prefix = [sys.executable, "-m", "hardycheck.cli"]
        if self.trace:
            self.span_files.append(self.out_dir / f"cli-spans-{len(self.span_files)}.json")
            prefix = [sys.executable, str(Path(__file__).parent / "cli_child.py"), str(self.span_files[-1])]
        proc = subprocess.run(prefix + self.argv(case), env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        written = Path(out).read_bytes() if out is not None and Path(out).is_file() else None
        return proc.returncode, proc.stdout, proc.stderr, written

    def expected(self, case: dict) -> dict:
        """What the CLI must do, from the same library call made in-process."""
        kind = case["kind"]
        if kind == "usage":
            return {"codes": {2}}
        if kind in ("tol_inf", "tol_tiny"):
            return {"codes": {0, 1, 2}, "optimum": True}
        if kind == "out_missing":
            return {"codes": {1, 2}}
        key = (case["command"], case["fmt"], case.get("theta"))
        if key in self.expected_cache:
            return self.expected_cache[key]
        hc, command, theta = self.hc, case["command"], case.get("theta")
        problems: list[str] = []
        try:
            if command in ("verify", "table"):
                table = hc.joint_probability_table(hc.build_hardy_configuration(theta))
                pred = hc.verify_hardy_predictions(table, tol=1e-10)
                problems = oracles.check_sweep(theta, table.records(), pred, None)
                report, passed = (pred, pred.all_hold) if command == "verify" else (table, True)
            elif command in ("counterfactual", "lhv"):
                truth = oracles.logic_truth(oracles.HARDY_ZEROS, oracles.HARDY_POSITIVE)
                cs = hc.hardy_constraint_set()
                if command == "counterfactual":
                    report = hc.locality_violation_report(cs)
                    problems = oracles.check_logic(truth, report, None, None, None)
                    passed = report.violation
                else:
                    report = hc.hardy_lhv_feasibility(cs)
                    problems = oracles.check_logic(truth, None, report, None, None)
                    passed = not report.feasible
            else:
                report = hc.maximize_paradox(tol=1e-10)
                problems = oracles.check_optimize(*DEFAULT_BRACKET, report.theta_star, report.p4_max)
                passed = True
            expected = {"codes": {0 if passed else 1}, "report": hc.render_report(report, case["fmt"]), "problems": problems}
        except Exception as exc:  # the library fails in-process; the CLI must fail cleanly
            expected = {"codes": {1, 2}, "library_error": f"{type(exc).__name__}: {exc}"}
        if theta is None:
            self.expected_cache[key] = expected
        return expected

    def check(self, case, result) -> list[str]:
        code, stdout, stderr, written = result
        expected = self.expected(case)
        return expected.get("problems", []) + oracles.check_cli(case, code, stdout, stderr, written, expected)


def make(name: str, hc, out_dir: Path, env: dict, trace: bool) -> Workload:
    if name == "cli":
        return Cli(hc, out_dir, env, trace)
    return {"sweep": Sweep, "optimize": Optimize, "logic": Logic}[name](hc, out_dir)
