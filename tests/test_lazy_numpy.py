"""numpy loads on first array use: the logic commands and usage errors run without it.

Each test runs in a fresh interpreter, since this pytest process has numpy loaded.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"

SUBMODULES = ("quantum", "hardy", "counterfactuals", "lhv", "optimize", "render")

#: At least one argv per usage class the cli benchmark draws from; csv for a
#: report is rejected at parse time, before any array work.
USAGE_ARGVS = (
    ["frobnicate"],
    [],
    ["verify", "--theta", "2"],
    ["table", "--theta", "abc"],
    ["verify", "--tol", "0"],
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
numpy_on_import = "numpy" in sys.modules
hardycheck.joint_probability_table(hardycheck.build_hardy_configuration(0.7))
hardycheck.maximize_paradox()
import numpy
from hardycheck import hardy, optimize, quantum
bound = [module.np is numpy for module in (quantum, optimize)]
print(json.dumps({"loaded": loaded, "numpy_on_import": numpy_on_import, "bound": bound, "hardy_np": hasattr(hardy, "np")}))
"""


def run_fresh(code: str, *args: str) -> object:
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC), *args], capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(proc.stdout)


def test_logic_commands_and_usage_errors_run_without_numpy() -> None:
    logic = [[command, "--format", fmt] for command in ("lhv", "counterfactual") for fmt in ("text", "json")]
    argvs = logic + list(USAGE_ARGVS) + [["verify"]]
    results = run_fresh(_RUN_CLI, json.dumps(argvs))
    for argv, result in zip(logic, results):
        assert result["numpy"] is False, argv
        assert result["out"] == (GOLDEN / f"{argv[0]}.{argv[2]}").read_text(), argv
    for argv, result in zip(USAGE_ARGVS, results[len(logic) :]):
        assert (result["code"], result["out"], result["numpy"]) == (2, "", False), argv
        assert result["err"].startswith("error:") and result["err"].count("\n") == 1, argv
    verify = results[-1]
    assert verify["numpy"] is True
    assert (verify["code"], verify["out"]) == (0, (GOLDEN / "verify.text").read_text())


def test_import_loads_every_submodule_and_first_use_binds_numpy() -> None:
    result = run_fresh(_IMPORT_THEN_COMPUTE)
    assert result["loaded"] == sorted(f"hardycheck.{name}" for name in SUBMODULES)
    assert result["numpy_on_import"] is False
    assert result["bound"] == [True, True]
    assert result["hardy_np"] is False  # the construction hands its constructors plain floats
