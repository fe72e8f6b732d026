#!/usr/bin/env python3
"""List the statement lines of src/schemehall that a test run never executes.

A line tracer built on sys.settrace, as no coverage package is needed:
it records the lines run in frames whose code lives under
src/schemehall, and runs the tier-1 suite in this process under it, so
the package is imported, and its module-level lines run, while traced.
Work done in other processes, such as a report's process pool, is not
seen.  Docstrings, def, class and import lines and bare annotations are
not statements that count.  Run from the root of the repository:

    python3 tools/src_coverage.py [pytest arguments]

The pytest arguments default to "-q -p no:cacheprovider tests".  Each
module with an unexecuted statement prints one line with their line
numbers, then a total; the exit status is pytest's.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schemehall"

# statements that run whenever their module is imported or their
# function is entered, or that run no code of their own
_SKIPPED = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
    ast.Try, ast.Global, ast.Nonlocal,
)
_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith)


def statement_lines(source: str) -> dict[int, range]:
    """Each counted statement of a module's source, by its first line,
    mapped to the lines any of which running shows it ran: the whole
    statement, or the header of a compound one."""
    out: dict[int, range] = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring, or another bare string
        if isinstance(node, ast.AnnAssign) and node.value is None:
            continue  # a bare annotation
        end = node.body[0].lineno if isinstance(node, _COMPOUND) else node.end_lineno + 1
        out[node.lineno] = range(node.lineno, end)
    return out


def unexecuted(source: str, ran: set[int]) -> list[int]:
    """The first lines of the counted statements none of whose lines ran."""
    return sorted(
        first for first, lines in statement_lines(source).items()
        if not any(line in ran for line in lines)
    )


def main(argv: list[str]) -> int:
    import pytest

    ran: dict[str, set[int]] = {}  # lines run, by the file's resolved path
    files: dict[str, set[int] | None] = {}  # the set of ran to fill, by co_filename

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def outer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = ran.setdefault(str(path), set()) if path.parent == PACKAGE else None
        return None if files[name] is None else local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(outer)
    sys.settrace(outer)
    try:
        status = pytest.main(argv[1:] or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = unexecuted(path.read_text(encoding="utf-8"), ran.get(str(path), set()))
        total += len(missed)
        if missed:
            print(f"{path.name}: {', '.join(map(str, missed))}")
    print(f"statements never executed: {total}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
