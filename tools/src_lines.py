#!/usr/bin/env python3
"""Print the line count of each module of src/schemehall, and the total.

Two figures per module: every line of the file ("all"), and its code
lines ("code"), which leave out blank lines, comment-only lines and the
lines of module, class and function docstrings.  Run from the root of
the repository:

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


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/schemehall")
    total_all = total_code = 0
    print(f"{'module':<20} {'all':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        n_all, n_code = line_counts(path.read_text(encoding="utf-8"))
        total_all += n_all
        total_code += n_code
        print(f"{path.name:<20} {n_all:>6} {n_code:>6}")
    print(f"{'total':<20} {total_all:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
