"""Mutation probe: how many one-operator mutants of ``src/hardycheck`` does the test suite kill?

A mutant changes one site outside annotations: ``and``/``or`` (a whole chain), ``&``/``|``, ``==``/``!=``,
``is``/``is not``, ``<``/``<=`` or ``>``/``>=``, or it drops a ``not``. The tests run on it with ``-x`` in a copy
of the tree; a run over 90 s is killed, with what it started, and counts as killed. A survivor named in
``equivalent_mutants.txt`` (a site id, `` # ``, then why no input tells it apart) is reported as equivalent.
``--list`` runs no tests: it counts the sites, and exits 1 if a listed site is gone. See ``--help``.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

#: Each operator's text and what its mutant writes instead; a dropped ``not`` writes nothing.
SWAPS = {ast.And: ("and", "or"), ast.Or: ("or", "and"), ast.BitAnd: ("&", "|"), ast.BitOr: ("|", "&"),
         ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
         ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"), ast.Not: ("not", "")}
EQUIVALENT = Path(__file__).with_name("equivalent_mutants.txt")
ROOT = Path(__file__).resolve().parent.parent  # the tree whose ``src/hardycheck`` is mutated and tested


def mutants(path: Path) -> dict[str, bytes]:
    """Each mutant of the file by site id, ``file | scope | expression -> mutant``, then `` #n`` if repeated."""
    data = path.read_bytes()
    tree, starts, found = ast.parse(data), [0], {}
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    start = lambda node: starts[node.lineno - 1] + node.col_offset
    end = lambda node: starts[node.end_lineno - 1] + node.end_col_offset
    def add(scope: str, node: ast.AST, op: ast.AST, gaps: list[tuple[ast.AST, ast.AST]]) -> None:
        (old, new), mutant = SWAPS[type(op)], data
        for left, right in reversed(gaps):  # the operator's text lies between the two operands
            lo, hi = (end(left) if left is not node else start(node)), start(right)
            mutant = mutant[:lo] + mutant[lo:hi].replace(old.encode(), new.encode(), 1) + mutant[hi:]
        assert ast.dump(ast.parse(mutant)) != ast.dump(tree), f"no change at {path.name}:{node.lineno}"
        text = lambda source, shift: " ".join(source[start(node) : end(node) + shift].decode().split())
        key = f"{path.name} | {scope} | {text(data, 0)} -> {text(mutant, len(mutant) - len(data))}"
        found[key + f" #{sum(k.split(' #')[0] == key for k in found) + 1}" * (key in found)] = mutant
    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        for child in ast.iter_child_nodes(node):
            if child not in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                visit(child, scope)
        if isinstance(node, ast.BoolOp):
            add(scope, node, node.op, list(zip(node.values, node.values[1:])))
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            add(scope, node, node.op, [(node.left, node.right)])
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in SWAPS:
                    add(scope, node, op, [(left, right)])
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            add(scope, node, node.op, [(node, node.operand)])  # from the node's start: ``not`` is its first word

    visit(tree, "")
    return found


def survives(tree: Path) -> bool:
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # replay no example that another mutant saved
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = ["timeout", "-s", "KILL", "90", sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    return subprocess.run([*cmd, "--hypothesis-seed=0"], cwd=tree, env=env, capture_output=True).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--list", action="store_true", help="count the sites and check the list; run no tests")
    args = parser.parse_args()
    per_module = {path: mutants(path) for path in sorted((ROOT / "src/hardycheck").glob("*.py"))}
    equivalent = {line.split(" # ")[0] for line in EQUIVALENT.read_text().splitlines() if line.strip()}
    if args.list:
        stale = sorted(equivalent.difference(*per_module.values()))
        print("\n".join(f"{path.name}: {len(found)} sites" for path, found in per_module.items()))
        print("".join(f"not a mutation site: {key}\n" for key in stale), end="", file=sys.stderr)
        return 1 if stale else 0
    print("module | mutants | survivors | of which equivalent")
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns(".*", "__pycache__")
        tree = Path(shutil.copytree(ROOT, Path(tmp) / "tree", ignore=ignore))
        for path, found in per_module.items():
            target = tree / "src/hardycheck" / path.name
            survivors = [key for key, mutant in found.items() if target.write_bytes(mutant) and survives(tree)]
            target.write_bytes(path.read_bytes())
            for key in survivors:
                print(("equivalent: " if key in equivalent else "SURVIVED: ") + key)
            print(f"{path.name} | {len(found)} | {len(survivors)} | {len(equivalent & set(survivors))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
