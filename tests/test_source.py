import ast
from pathlib import Path

import d2lie

SRC = Path(d2lie.__file__).parent


def test_library_has_no_assert_statements():
    # Invariants must survive `python -O`, which strips assert statements.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"
