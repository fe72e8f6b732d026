"""Source-level rules for the package itself.

Invariants the code enforces must survive `python -O`, which strips
assert statements, so the package raises InternalInconsistencyError
instead and this test keeps it that way.
"""

import ast
from pathlib import Path

import schemehall

SOURCE = Path(schemehall.__file__).resolve().parent


def test_no_assert_statements_in_package():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
