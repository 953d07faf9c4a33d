import ast
import os
import runpy
import subprocess
import sys
from pathlib import Path

import d2lie

SRC = Path(d2lie.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    # Invariants must survive `python -O`, which strips assert statements,
    # and a failed invariant raises a typed error the CLI can report
    # (ArithmeticError for a discrepancy, ValueError for a bad input).
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{n.lineno}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Assert)
            or (isinstance(n, ast.Raise) and n.exc is not None and _raises_assertion_error(n))
        ]
    assert not found, f"assert statements or AssertionErrors in the library: {found}"


def test_reports_survive_python_O(tmp_path):
    # The run-time side of the check above: with asserts stripped, every
    # benchmark command still exits 0 and main writes its reference report.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    workloads = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]
    for cmd in (cmd for w in workloads.values() for cmd in w.commands):
        out = tmp_path / f"{cmd.name}.json"
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "d2lie.cli", *cmd.argv, "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (cmd.name, proc.stderr)
        assert out.read_bytes() == (BENCH / "reference" / f"{cmd.name}.json").read_bytes(), cmd.name


def test_library_imports_are_used():
    # No linter runs on the library, so an import that a refactor left
    # without a use would stay unnoticed.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, f"imported but never used in the library: {unused}"


def _names_used(tree) -> set[str]:
    """Every name a module mentions: names, attributes, import aliases and
    string constants (the benchmark names the functions it spans in strings)."""
    used = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            used.update(n.value.split("."))
    return used


def test_library_has_no_dead_definitions():
    # A function or class that nothing in the library, the tests or the
    # benchmark names is dead code left behind by a refactor.
    root = Path(__file__).resolve().parent.parent
    files = [p for d in ("src", "tests", "bench") for p in sorted((root / d).rglob("*.py"))]
    used = set()
    for path in files:
        used |= _names_used(ast.parse(path.read_text(), filename=str(path)))
    dead = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        dead += [
            f"{path.name}:{n.lineno} {n.name}"
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (n.name.startswith("__") and n.name.endswith("__"))
            and n.name not in used
        ]
    assert not dead, f"defined in the library but named nowhere: {dead}"
