"""Source-level rules for the package itself.

Invariants the code enforces must survive `python -O`, which strips
assert statements, so the package raises InternalInconsistencyError
instead and this test keeps it that way.
"""

import ast
import importlib
import importlib.util
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


def test_bench_tracer_names_resolve():
    """The bench tracer looks each traced function up by name in
    schemehall.<layer>, and each method name on Hypergroup; a deletion
    or rename in the package must not leave it pointing at nothing."""
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"schemehall.{layer}")
        for name in names:
            if name in spans.METHODS:
                found = callable(vars(module.Hypergroup).get(name))
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"{layer}.{name}")
    assert spans.METHODS <= {n for names in spans.TRACED.values() for n in names}
    assert not missing, f"traced names missing from the package: {missing}"
