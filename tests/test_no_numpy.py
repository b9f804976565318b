"""No command and no library call loads numpy: the package computes in pure Python.

Each test runs in a fresh interpreter, since this pytest process has numpy loaded.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from hardycheck.cli import _COMMANDS

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"

SUBMODULES = ("quantum", "hardy", "counterfactuals", "lhv", "optimize", "render")

#: At least one argv per usage class the cli benchmark draws from, and two that pass a flag the command does not take.
USAGE_ARGVS = (
    ["frobnicate"],
    [],
    ["verify", "--theta", "2"],
    ["table", "--theta", "abc"],
    ["verify", "--tol", "0"],
    ["lhv", "--theta", "0.5"],
    ["table", "--tol", "1e-3"],
    ["lhv", "--format", "csv"],
    ["optimize", "--format", "csv"],
    ["verify", "--format", "csv"],
    ["lhv", "--format", "xml"],
)

_RUN_CLI = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from hardycheck.cli import main

def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "out": out.getvalue(), "err": err.getvalue(), "numpy": "numpy" in sys.modules}

print(json.dumps([call(argv) for argv in json.loads(sys.argv[2])]))
"""

_IMPORT_THEN_COMPUTE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import hardycheck
loaded = sorted(name for name in sys.modules if name.startswith("hardycheck."))
hardycheck.joint_probability_table(hardycheck.build_hardy_configuration(0.7))
hardycheck.maximize_paradox()
print(json.dumps({"loaded": loaded, "numpy": "numpy" in sys.modules}))
"""


def run_fresh(code: str, *args: str) -> object:
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC), *args], capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(proc.stdout)


def test_no_command_or_usage_error_loads_numpy() -> None:
    commands = [[name, "--format", fmt] for name, formats, _, _ in _COMMANDS for fmt in formats]
    assert len(commands) == 11
    results = run_fresh(_RUN_CLI, json.dumps(commands + list(USAGE_ARGVS)))
    for argv, result in zip(commands, results):
        assert result["numpy"] is False, argv
        assert (result["code"], result["err"]) == (0, ""), argv
        assert result["out"] == (GOLDEN / f"{argv[0]}.{argv[2]}").read_text(), argv
    for argv, result in zip(USAGE_ARGVS, results[len(commands) :]):
        assert (result["code"], result["out"], result["numpy"]) == (2, "", False), argv
        assert result["err"].startswith("error:") and result["err"].count("\n") == 1, argv


def test_import_loads_every_library_submodule_and_no_call_loads_numpy() -> None:
    result = run_fresh(_IMPORT_THEN_COMPUTE)
    assert result["loaded"] == sorted(f"hardycheck.{name}" for name in SUBMODULES)  # and not cli
    assert result["numpy"] is False


_DATACLASSES_AFTER_IMPORT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import hardycheck.cli
print(json.dumps(sorted(
    f"{name}.{cls}"
    for name, module in sys.modules.items() if name.startswith("hardycheck.")
    for cls, value in vars(module).items()
    if isinstance(value, type) and value.__module__ == name and "__dataclass_fields__" in vars(value)
)))
"""


def test_only_the_four_records_the_benchmark_replaces_are_dataclasses() -> None:
    # perfbench/selfcheck.py builds perturbed copies of these four with dataclasses.replace, which takes only a
    # dataclass. Every other record is a quantum.Record, built without the per-class code generation that
    # @dataclass runs on each cold import; a fifth decorated class would add that cost back to every CLI process.
    assert run_fresh(_DATACLASSES_AFTER_IMPORT) == [
        "hardycheck.counterfactuals.LocalityReport",
        "hardycheck.hardy.NoSignallingReport",
        "hardycheck.hardy.PredictionReport",
        "hardycheck.lhv.FeasibilityResult",
    ]


_LAZY_TABLES_AFTER = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from hardycheck.cli import main
from hardycheck.counterfactuals import _sr_table, enumerate_instances
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "built": [enumerate_instances.cache_info().currsize, _sr_table.cache_info().currsize]}))
"""


def test_only_the_counterfactual_command_builds_the_instances_and_the_sr_table() -> None:
    # The cheap logic tables are built at import: the per-slot instance sets, the Hardy constraint set, Eq4's basis
    # indices and the 16 strategies with their embedded instances (3-7, 12-15, 1 and 68-81 us on Python 3.10-3.13,
    # best of 7). The 64 instances (130-180 us) and SR's verdicts on them (240-290 us) are built on first use: a cold
    # process of any other command would pay for them and never read them.
    for argvs, built in (([["table"], ["verify"], ["optimize"], ["lhv"]], [0, 0]), ([["counterfactual"]], [1, 1])):
        assert run_fresh(_LAZY_TABLES_AFTER, json.dumps(argvs)) == {"codes": [0] * len(argvs), "built": built}
