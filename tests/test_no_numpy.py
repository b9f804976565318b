"""No command and no library call loads numpy: the package computes in pure Python. Nor does the CLI load typing,
dataclasses, inspect, json or pathlib.

A cold command runs only the library submodules it uses, though all six are in ``sys.modules``.
Each test runs in a fresh interpreter, since this pytest process has numpy loaded.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


#: A submodule is in sys.modules from ``import hardycheck`` on, but runs on its first attribute read; type() reads none.
_RAN = """
import contextlib, io, json, sys, types
sys.path.insert(0, sys.argv[1])

def ran():
    return sorted(n[11:] for n, m in list(sys.modules.items()) if n.startswith("hardycheck.") and type(m) is types.ModuleType)
"""

_RAN_FOR_ARGV = (
    _RAN
    + """
import hardycheck.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = hardycheck.cli.main(json.loads(sys.argv[2]))
print(json.dumps({"code": code, "ran": ran()}))
"""
)

#: The library submodules a cold command runs: its own, what they import, and render, which imports quantum.
RUNS = {
    "verify": ["hardy", "quantum", "render"],
    "table": ["hardy", "quantum", "render"],
    "counterfactual": ["counterfactuals", "quantum", "render"],
    "lhv": ["counterfactuals", "lhv", "quantum", "render"],
    "optimize": ["optimize", "quantum", "render"],
}


@pytest.mark.parametrize(
    "argv", [[name, "--format", fmt] for name, formats, _, _ in _COMMANDS for fmt in formats], ids=" ".join
)
def test_a_command_runs_only_the_library_submodules_it_uses(argv: list[str]) -> None:
    assert run_fresh(_RAN_FOR_ARGV, json.dumps(argv)) == {"code": 0, "ran": ["cli", *RUNS[argv[0]]]}


def test_a_usage_error_runs_only_quantum_and_render() -> None:
    assert run_fresh(_RAN_FOR_ARGV, json.dumps(["frobnicate"])) == {"code": 2, "ran": ["cli", "quantum", "render"]}


_TRACER_VIEW = (
    _RAN
    + """
import hardycheck.cli
listed = sorted(name for name in sys.modules if name.startswith("hardycheck."))
before = ran()
for name in listed:
    vars(sys.modules[name])  # as the tracer reads each module's bindings
print(json.dumps({"listed": listed, "before": before, "after": ran()}))
"""
)


def test_every_library_submodule_is_in_sys_modules_after_importing_the_cli() -> None:
    # perfbench's tracer and cli_child look every submodule up in sys.modules and wrap its functions before main runs;
    # reading a lazy module's attributes, as they do, runs it.
    assert run_fresh(_TRACER_VIEW) == {
        "listed": sorted(f"hardycheck.{name}" for name in ("cli", *SUBMODULES)),
        "before": ["cli", "quantum", "render"],
        "after": sorted(("cli", *SUBMODULES)),
    }


_FIRST_READS_FROM_THREADS = """
import json, sys, threading
sys.path.insert(0, sys.argv[1])
import hardycheck
sys.setswitchinterval(1e-6)
reads = [
    lambda: hardycheck.hardy.joint_probability_table,
    lambda: hardycheck.optimize.maximize_paradox,
    lambda: hardycheck.lhv.hardy_lhv_feasibility,
    lambda: hardycheck.maximize_paradox,
] * 2
barrier = threading.Barrier(len(reads))
errors = []

def read(get):
    barrier.wait(timeout=60)
    try:
        get()
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=read, args=(get,), daemon=True) for get in reads]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
print(json.dumps({"errors": errors, "alive": sum(thread.is_alive() for thread in threads)}))
"""


def test_threads_that_first_read_the_same_modules_at_once_each_see_them_whole() -> None:
    # importlib.util.LazyLoader, before Python 3.13, makes a module plain before running its code, so a second thread
    # read a half-run module (AttributeError on 3.10.13, 3.11.7 and 3.12.1); here it waits for the run to end.
    for _ in range(3):
        assert run_fresh(_FIRST_READS_FROM_THREADS) == {"errors": [], "alive": 0}


_PACKAGE_NAMES = (
    _RAN
    + """
import hardycheck

def names():
    return {"dir": dir(hardycheck), "all": list(hardycheck.__all__), "ran": ran()}

before = names()
first = {name: getattr(hardycheck, name) for name in hardycheck.__all__}
after = names()
modules = [vars(sys.modules[f"hardycheck.{name}"]) for name in after["ran"]]
print(json.dumps({
    "before": before,
    "after": after,
    "kept": [name for name, value in first.items() if vars(hardycheck)[name] is value],
    "getattr_left": "__getattr__" in vars(hardycheck),
    "from_a_submodule": [name for name, value in first.items() if any(m.get(name) is value for m in modules)],
}))
"""
)


def test_dir_all_and_every_export_read_the_same_before_and_after_the_first_access() -> None:
    result = run_fresh(_PACKAGE_NAMES)
    before, after = result["before"], result["after"]
    assert before["ran"] == [] and after["ran"] == sorted(SUBMODULES)  # dir() and __all__ run nothing
    assert before["dir"] == after["dir"] and before["all"] == after["all"]
    names = after["all"]
    assert len(names) == len(set(names)) == 60
    assert names == sorted(names, key=lambda name: (not name.isupper(), name[0].islower(), name))  # constants first
    public = [name for name in after["dir"] if not name.startswith("_")]
    assert public == sorted([*names, *SUBMODULES, "annotations"])
    assert result["kept"] == result["from_a_submodule"] == names
    assert result["getattr_left"] is False  # while a module has one, Python 3.11+ reads its attributes unspecialized


_DATACLASSES_AFTER_IMPORT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import hardycheck.cli
print(json.dumps(sorted(
    f"{name}.{cls}"
    for name, module in list(sys.modules.items()) if name.startswith("hardycheck.")
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


_STDLIB_AFTER = """
import contextlib, io, sys  # json only at the end
sys.path.insert(0, sys.argv[1])
SKIPPED = ("typing", "dataclasses", "inspect", "json", "pathlib")
import hardycheck.cli
imported = [name for name in SKIPPED if name in sys.modules]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [hardycheck.cli.main(argv) for argv in (["frobnicate"], ["optimize"], ["optimize", "--format", "json"])]
ran = "dataclasses" in sys.modules
report = hardycheck.optimize.maximize_paradox()
try:
    report.p4_max = 0.0
except Exception as exc:
    import dataclasses
    frozen = type(exc) is dataclasses.FrozenInstanceError
import json
print(json.dumps({"imported": imported, "codes": codes, "dataclasses_after_main": ran, "frozen": frozen}))
"""


def test_the_cli_imports_only_the_stdlib_it_runs() -> None:
    # -S skips site, whose .pth files (certifi's, for one) may import typing or pathlib before any package code runs.
    # dataclasses (with inspect) loads only with a module that declares a dataclass: a usage error and optimize, in
    # text or as a JSON record, run none, and a record loads it only to raise its FrozenInstanceError. render takes
    # its string encoder from _json.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _STDLIB_AFTER, str(SRC)], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"imported": [], "codes": [2, 0, 0], "dataclasses_after_main": False, "frozen": True}


_WITHOUT_C_JSON = """
import sys
sys.modules["_json"] = None  # as on an interpreter built without it: import _json raises ImportError
sys.path.insert(0, sys.argv[1])
import contextlib, io, json, json.encoder
from hardycheck import render
from hardycheck.cli import main
outputs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        outputs.append([main(argv), out.getvalue()])
fallback = render.encode_basestring_ascii is json.encoder.py_encode_basestring_ascii
print(json.dumps({"fallback": fallback, "outputs": outputs}))
"""


def test_the_json_reports_keep_their_bytes_without_the_c_encoder() -> None:
    # render takes encode_basestring_ascii from _json and falls back to json.encoder, whose function is then the
    # pure-Python one; CPython always has _json, so only this test runs the fallback.
    names = ["verify", "table", "counterfactual", "lhv", "optimize"]
    result = run_fresh(_WITHOUT_C_JSON, json.dumps([[name, "--format", "json"] for name in names]))
    assert result["fallback"] is True
    assert result["outputs"] == [[0, (GOLDEN / f"{name}.json").read_text()] for name in names]
