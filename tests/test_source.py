"""Source-level rules for the package itself.

Invariants the code enforces must survive `python -O`, which strips
assert statements, so the package raises InternalInconsistencyError
instead and this test keeps it that way.  No module imports a name it
does not use, the public API carries no name without a caller, and
every name the bench tracer patches exists.  The package's __all__ is
the union of its submodules' lists and nothing else.  Importing the package
and its CLI loads none of the stdlib stacks that only the download,
the cache, the bundled data or a process pool need.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import schemehall

SOURCE = Path(schemehall.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


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


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never loads; a string in __all__ counts
    as a use, as a re-export."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports_in_package():
    files = [path for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"]
    assert files
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused, f"unused imports in the package: {unused}"


def test_bench_tracer_names_resolve():
    """The bench tracer looks each traced function up by name in
    schemehall.<layer>, and each method name on Hypergroup; a deletion
    or rename in the package must not leave it pointing at nothing."""
    path = ROOT / "bench" / "spans.py"
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


def _references(path: Path) -> set[str]:
    """Names a file loads or spells as a whole string, leaving out
    __all__ lists, import statements and a def's uses of its own name."""
    found: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return found


def test_every_public_name_has_a_caller():
    """Each name in schemehall.__all__ is used somewhere in src/, tests/,
    tools/ or bench/; the re-export in __init__ does not count."""
    files = [
        path
        for top in ("src", "tests", "tools", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
    ]
    used: set[str] = set()
    for path in files:
        used |= _references(path)
    unused = sorted(set(schemehall.__all__) - used)
    assert not unused, f"public names with no caller: {unused}"


def test_package_surface_is_the_submodule_lists():
    """__init__ only star-imports: each submodule's __all__ is the one
    place a public name is declared, so the caller test above sees every
    one.  A name two submodules declare is the same object in both."""
    tree = ast.parse((SOURCE / "__init__.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    listed = [
        f"line {node.lineno}" for node in imports
        if isinstance(node, ast.Import) or [alias.name for alias in node.names] != ["*"]
    ]
    assert not listed, f"__init__.py imports names one by one: {listed}"
    modules = [importlib.import_module(f"schemehall.{node.module}") for node in imports]
    declared = ["__version__"] + [name for module in modules for name in module.__all__]
    assert sorted(schemehall.__all__) == sorted(set(declared))
    for module in modules:
        for name in module.__all__:
            assert getattr(schemehall, name) is getattr(module, name), (module.__name__, name)


def test_version_matches_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert f'\nversion = "{schemehall.__version__}"\n' in pyproject


# loaded on first use by fetch_catalogue, the cache, bundled_* and report --jobs
DEFERRED = (
    "urllib.request", "http.client", "ssl", "socket", "email", "hashlib",
    "tempfile", "importlib.resources", "concurrent.futures", "multiprocessing",
    "logging",
)


def test_import_loads_no_deferred_stdlib_stack():
    """Against the modules the interpreter already holds before the import,
    so a site hook that preloads some of them does not hide a regression."""
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import schemehall, schemehall.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True,
    ).stdout
    new = set(json.loads(out))
    loaded = sorted(name for name in DEFERRED if name in new)
    assert not loaded, f"import schemehall loads {loaded}"
