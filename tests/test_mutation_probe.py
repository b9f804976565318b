"""The mutation probe's mutator and its list-only mode (``tools/mutation_probe.py``); no mutant is run here.

Each site yields one mutant, whose source differs from the original at that site only, and whose id names the file,
the enclosing scope and the expression before and after. Annotations yield none. ``--list`` exits 1 when an entry
of the equivalent-mutant list names no site; CI runs it on this tree.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutation_probe.py"
_spec = importlib.util.spec_from_file_location("mutation_probe", TOOL)
probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probe)

#: One site of each operator the probe swaps, in a function whose annotations use ``|`` and must yield no site.
SOURCE = """\
def f(a: int | None, b: int) -> bool | int:
    c: int | str = a
    return (a and b, a or b, a & b, a | b, a == b, a != b, a is b, a is not b, a < b, a <= b, a > b, a >= b, not a,)
"""
SWAPS = [
    ("a and b", "a or b"),
    ("a or b", "a and b"),
    ("a & b", "a | b"),
    ("a | b", "a & b"),
    ("a == b", "a != b"),
    ("a != b", "a == b"),
    ("a is b", "a is not b"),
    ("a is not b", "a is b"),
    ("a < b", "a <= b"),
    ("a <= b", "a < b"),
    ("a > b", "a >= b"),
    ("a >= b", "a > b"),
    ("not a", "a"),
]


def _mutants(tmp_path: Path, source: str) -> dict[str, bytes]:
    path = tmp_path / "mod.py"
    path.write_text(source)
    return probe.mutants(path)


def test_every_site_outside_annotations_gives_one_mutant(tmp_path: Path) -> None:
    assert sorted(_mutants(tmp_path, SOURCE)) == sorted(f"mod.py | f | {old} -> {new}" for old, new in SWAPS)
    assert set(probe.SWAPS) == {ast.And, ast.Or, ast.BitAnd, ast.BitOr, ast.Eq, ast.NotEq, ast.Is, ast.IsNot, ast.Lt,
                                ast.LtE, ast.Gt, ast.GtE, ast.Not}


@pytest.mark.parametrize("old, new", SWAPS, ids=[old for old, _ in SWAPS])
def test_a_mutant_changes_its_site_and_nothing_else(tmp_path: Path, old: str, new: str) -> None:
    mutant = _mutants(tmp_path, SOURCE)[f"mod.py | f | {old} -> {new}"]
    assert ast.dump(ast.parse(mutant)) == ast.dump(ast.parse(SOURCE.replace(f"{old},", f"{new},", 1)))


def test_a_chain_is_one_site_and_a_repeated_expression_is_numbered(tmp_path: Path) -> None:
    source = "class C:\n    def m(self, a, b, c):\n        return a and b and c, a == b, a == b\n"
    found = _mutants(tmp_path, source)
    assert sorted(found) == [
        "mod.py | C.m | a == b -> a != b",
        "mod.py | C.m | a == b -> a != b #2",
        "mod.py | C.m | a and b and c -> a or b or c",
    ]
    second = found["mod.py | C.m | a == b -> a != b #2"].decode()
    assert second.endswith("a == b, a != b\n")


def test_list_mode_fails_when_a_listed_site_is_gone(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    (tmp_path / "src" / "hardycheck").mkdir(parents=True)
    (tmp_path / "src" / "hardycheck" / "quantum.py").write_text("def _fma(a, b):\n    return a < b\n")
    monkeypatch.setattr(probe, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["mutation_probe.py", "--list"])
    assert probe.main() == 1
    out, err = capsys.readouterr()
    assert out == "quantum.py: 1 sites\n"
    listed = [line.split(" # ")[0] for line in probe.EQUIVALENT.read_text().splitlines() if line.strip()]
    assert err.splitlines() == [f"not a mutation site: {key}" for key in sorted(listed)]
