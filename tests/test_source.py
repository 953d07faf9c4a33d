import ast
import os
import random
import runpy
import subprocess
import sys
from pathlib import Path

from oracles import rref_rank

import d2lie
from d2lie.algebra import build_chevalley_D
from d2lie.gf2 import GF2Matrix, PivotBasis

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


def _bench_commands():
    workloads = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]
    return [cmd for w in workloads.values() for cmd in w.commands]


def _run_python(*args):
    """A fresh interpreter on the library in src/; returns the finished process."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_reports_survive_python_O(tmp_path):
    # The run-time side of the check above: with asserts stripped, every
    # benchmark command still exits 0 and main writes its reference report.
    for cmd in _bench_commands():
        out = tmp_path / f"{cmd.name}.json"
        proc = _run_python("-O", "-m", "d2lie.cli", *cmd.argv, "--out", str(out))
        assert proc.returncode == 0, (cmd.name, proc.stderr)
        assert out.read_bytes() == (BENCH / "reference" / f"{cmd.name}.json").read_bytes(), cmd.name


def _imported_modules(*args) -> set[str]:
    """Every module a fresh interpreter imports, as -X importtime lists them."""
    proc = _run_python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_cli_processes_load_only_what_they_run(tmp_path):
    # Start-up is most of a benchmark command's process.  No command pays
    # for dataclasses and the inspect module it pulls in, and a command
    # loads cohomology, deformation and exterior only if it runs them (cli
    # docstring).  verify loads just the package, algebra and gf2: d2lie.cli
    # itself runs as __main__, so -X importtime does not list it.  What the
    # bare interpreter imports on its own is not the CLI's doing.
    bare = _imported_modules("-c", "pass")
    never = {"dataclasses", "inspect"}
    not_run = {
        "verify_l4": {"d2lie.cohomology", "d2lie.deformation", "d2lie.exterior"},
        "verify_exterior_l7": {"d2lie.cohomology", "d2lie.deformation"},
        "cohomology_l5": {"d2lie.deformation", "d2lie.exterior"},
        "integrability_l4": {"d2lie.exterior"},
    }
    commands = _bench_commands()
    assert set(not_run) <= {cmd.name for cmd in commands}
    for cmd in commands:
        out = tmp_path / f"{cmd.name}.json"
        loaded = _imported_modules("-m", "d2lie.cli", *cmd.argv, "--out", str(out)) - bare
        assert "d2lie.algebra" in loaded, cmd.name
        assert not loaded & (never | not_run.get(cmd.name, set())), cmd.name
        if cmd.name == "verify_l4":
            assert {m for m in loaded if m.partition(".")[0] == "d2lie"} == {"d2lie", "d2lie.algebra", "d2lie.gf2"}


def test_building_the_algebras_loads_no_cochain_code():
    # The benchmark's set-up path: importing the builders and building D_l
    # and the model compiles no cochain code; phi loads it when called.
    code = """
import sys
import d2lie.algebra, d2lie.exterior
d2lie.algebra.build_chevalley_D(5)
model = d2lie.exterior.build_quotient_model(5)
print(sorted(m for m in sys.modules if m.startswith("d2lie.")))
cochain = d2lie.exterior.phi(1, model)
from d2lie.cohomology import Cochain
print(type(cochain) is Cochain)
"""
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['d2lie.algebra', 'd2lie.exterior', 'd2lie.gf2']",
        "True",
    ]
    # The symmetry search is survey code, so the algebra module leaves it
    # to cohomology; and an algebra carries its weight index from the start.
    tree = ast.parse((SRC / "algebra.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"find_graded_isomorphism", "intertwines", "weight_codes"}
    codes = build_chevalley_D(5).weight_codes
    assert type(codes) is tuple and len(codes) == 45 and all(type(c) is int for c in codes)


def test_library_does_not_import_dataclasses():
    # The static side of the start-up check: dataclasses costs every
    # process several milliseconds for inspect; records are NamedTuples.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                names = [alias.name for alias in n.names]
            elif isinstance(n, ast.ImportFrom):
                names = [n.module or ""]
            else:
                continue
            found += [f"{path.name}:{n.lineno}" for name in names if name.split(".")[0] == "dataclasses"]
    assert not found, f"dataclasses imported in the library: {found}"


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
    # The library keeps only what it runs itself or the benchmark names: a
    # function or class that only the tests use belongs in tests/oracles.py
    # or the test module, and one that nothing names is dead code left
    # behind by a refactor.
    root = Path(__file__).resolve().parent.parent
    files = [p for d in ("src", "bench") for p in sorted((root / d).rglob("*.py"))]
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
    assert not dead, f"defined in the library but named nowhere in src/ or bench/: {dead}"


def _is_lowest_set_bit(node) -> bool:
    """node is X & -X, the lowest set bit of X."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitAnd)
        and isinstance(node.right, ast.UnaryOp)
        and isinstance(node.right.op, ast.USub)
        and ast.dump(node.right.operand) == ast.dump(node.left)
    )


def test_only_gf2_walks_set_bits_by_hand():
    # gf2.bit_indices is the one walk over the set bits of a packed int, and
    # PivotBasis pivots on the top set bit; any other module that takes
    # X & -X repeats the walk, or the lowest-pivot elimination, by hand.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "gf2.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if _is_lowest_set_bit(n)]
    assert not found, f"set bits walked outside gf2: {found}"


def test_pivot_basis_keys_each_row_by_its_top_bit():
    # PivotBasis pivots on the top set bit, read off bit_length() in O(1):
    # no method takes a lowest set bit, an X & -X as wide as the row, and
    # every stored row sits under its own bit_length().
    tree = ast.parse((SRC / "gf2.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "PivotBasis"]
    found = [f"gf2.py:{n.lineno}" for n in ast.walk(cls) if _is_lowest_set_bit(n)]
    assert not found, f"PivotBasis takes a lowest set bit: {found}"
    rng = random.Random(37)
    rows = [rng.getrandbits(rng.randrange(1, 300)) for _ in range(200)]
    pb = PivotBasis(rows + rows)
    assert pb.rank == rref_rank(GF2Matrix(len(rows), 300, rows))
    assert all(p == v.bit_length() for p, v in pb.pivots.items())


def _names_gf2matrix(node) -> bool:
    return (
        isinstance(node, ast.Name) and node.id == "GF2Matrix"
        or isinstance(node, ast.Attribute) and node.attr == "GF2Matrix"
        or isinstance(node, ast.alias) and node.name == "GF2Matrix"
    )


def test_only_the_weight_block_view_names_gf2matrix():
    # The library passes GF(2) rows as ints and tuples of ints: row_reduce
    # is a function and the centre is its tuple.  GF2Matrix is the dense
    # view of a weight block, which the benchmark's probe ranks, so outside
    # gf2.py only cohomology's WeightBlock and weight_block name it, with
    # the import that serves them; and the class keeps no row reduction.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "gf2.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if path.name == "cohomology.py" and (
                getattr(top, "name", None) in ("WeightBlock", "weight_block")
                or isinstance(top, ast.ImportFrom) and top.module == "gf2"
            ):
                continue
            found += [f"{path.name}:{n.lineno}" for n in ast.walk(top) if _names_gf2matrix(n)]
    assert not found, f"GF2Matrix named outside the weight-block view: {found}"
    from d2lie.gf2 import GF2Matrix

    assert not {"row_reduce", "__eq__"} & set(vars(GF2Matrix))
