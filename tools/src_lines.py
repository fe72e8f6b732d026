#!/usr/bin/env python3
"""Print the line count of each module of src/schemehall, and the total.

Three figures per module: every line of the file ("all"), its code
lines ("code"), which leave out blank lines, comment-only lines and the
lines of module, class and function docstrings, and its internal check
sites ("checks"), the raise statements of InternalInconsistencyError,
read from the syntax tree.  Run from the root of the repository:

    python3 tools/src_lines.py [directory]

The directory defaults to src/schemehall.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def line_counts(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    lines = source.splitlines()
    skip = {i for i, line in enumerate(lines, 1) if not line.strip()}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                skip.update(range(doc.lineno, doc.end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and lines[tok.start[0] - 1].lstrip().startswith("#"):
            skip.add(tok.start[0])
    return len(lines), len(lines) - len(skip)


def check_sites(source: str) -> int:
    """The raise statements of one module's source whose exception is
    InternalInconsistencyError, called or bare, by name or attribute."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            count += name == "InternalInconsistencyError"
    return count


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/schemehall")
    totals = [0, 0, 0]
    print(f"{'module':<20} {'all':>6} {'code':>6} {'checks':>6}")
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        row = (*line_counts(source), check_sites(source))
        totals = [t + r for t, r in zip(totals, row)]
        print(f"{path.name:<20} {row[0]:>6} {row[1]:>6} {row[2]:>6}")
    print(f"{'total':<20} {totals[0]:>6} {totals[1]:>6} {totals[2]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
