"""Source-level rules for the package itself.

Invariants the code enforces must survive `python -O`, which strips
assert statements, so the package raises InternalInconsistencyError
instead and this test keeps it that way.  No module imports a name it
does not use, no chain of imports between modules is a cycle, the public API carries no name without a caller, no
private helper lacks a caller in src/, the names and methods only
tests call are listed, the public data slots only tests read are
listed, ClosedSubset has no subclass and only closed_subset calls its
checking constructor, and every name the bench tracer patches exists.  Each internal check's message is named by a test, the
one that makes it fire.  The README's quick tour runs and shows the
values its comments state.  The package's __all__ is the union of its
submodules' lists and nothing else.  Importing the package
and its CLI loads none of the stdlib stacks that only the download,
the cache, the bundled data or a process pool need.
"""

import ast
import functools
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
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


# the errors that mark a check theory says cannot fail
ENGINE_ERRORS = ("InternalInconsistencyError", "NoConjugatorFoundError")


def _message_pattern(message: ast.expr) -> str:
    """A regex for a message's leading text: its literal text, a
    placeholder of an f-string standing for any text, cut after 40
    literal characters, enough to name it."""
    pattern, left = "", 40
    for part in message.values if isinstance(message, ast.JoinedStr) else [message]:
        if left <= 0:
            break
        if isinstance(part, ast.Constant):
            pattern += re.escape(part.value[:left])
            left -= len(part.value)
        else:
            pattern += ".+"
    return pattern


def _tool(name: str) -> types.ModuleType:
    """The script tools/<name>.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_internal_check_fires_in_a_test():
    """Each InternalInconsistencyError and NoConjugatorFoundError raised
    in src/ is named in tests/: some string there, less a leading ^,
    begins with the leading text of its message, as _message_pattern
    reads it.  A check that no test makes fire may be unreachable, test
    the wrong thing or carry a wrong message; it fires in a test, through
    a seeded fault or a natural bad input, or it goes.  The scan finds
    every site: as many as tools/src_lines.py counts raises of
    InternalInconsistencyError, plus the NoConjugatorFoundError sites,
    and that count is not zero."""
    named = [
        node.value.removeprefix("^")
        for path in sorted((ROOT / "tests").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    sources = {path: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    sites = [
        (f"{path.name}:{node.lineno}", node.func.id, _message_pattern(node.args[0]))
        for path, source in sources.items()
        for node in ast.walk(ast.parse(source, filename=str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ENGINE_ERRORS
    ]
    raises = sum(map(_tool("src_lines").check_sites, sources.values()))
    no_conjugator = sum(error == "NoConjugatorFoundError" for _, error, _ in sites)
    assert raises and len(sites) == raises + no_conjugator, (raises, sites)
    assert not any(p.startswith(".+") for _, _, p in sites), sites
    silent = [site for site, _, pattern in sites if not any(re.match(pattern, s) for s in named)]
    assert not silent, f"internal checks that no test makes fire: {silent}"


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


def _package_imports(path: Path) -> dict[str, int]:
    """The sibling modules a module imports, at module level or inside
    a function, each with the line of its first such import."""
    out: dict[str, int] = {}
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for name in [node.module] if node.module else [a.name for a in node.names]:
                name = name.split(".")[0]
                out[name] = min(out.get(name, node.lineno), node.lineno)
    return out


def test_package_has_no_import_cycle():
    """No chain of imports between the package's modules returns to the
    module it starts from.  Imports inside functions count too: a lazy
    import only defers the cycle to the first call."""
    graph = {path.stem: _package_imports(path) for path in sorted(SOURCE.glob("*.py"))}
    assert graph["groups"]["hypergroup"]
    cycles = []
    for start in graph:
        stack, seen = [(start, [])], set()
        while stack:
            module, trail = stack.pop()
            for target, line in sorted(graph.get(module, {}).items()):
                step = trail + [f"{module}.py:{line}"]
                if target == start:
                    cycles.append(" -> ".join(step + [start]))
                elif target not in seen:
                    seen.add(target)
                    stack.append((target, step))
    assert not cycles, f"import cycles in the package: {cycles}"


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
    __all__ lists, import statements and a def's uses of its own name.
    Outside src/, a name the file defines at module level is its own,
    not the package's: bench/calibrate.py defines and calls kernel()."""
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

    tree = ast.parse(path.read_text(), filename=str(path))
    visit(tree, frozenset())
    if SOURCE in path.resolve().parents:
        return found
    own = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            own.update(t.id for t in targets if isinstance(t, ast.Name))
    return found - own


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


def test_every_private_helper_has_a_caller_in_src():
    """Each module-level private function or class in the package is
    referenced in src/ outside its own definition, so a kernel the
    library stopped calling leaves src/ rather than staying on as an
    uncalled private."""
    files = sorted(SOURCE.glob("*.py"))
    used: set[str] = set()
    private = []
    for path in files:
        used |= _references(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        private += [
            f"{path.name}:{node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
        ]
    assert private
    uncalled = [entry for entry in private if entry.split(":")[1] not in used]
    assert not uncalled, f"private helpers with no caller in src/: {uncalled}"


def test_hypergroup_caches_are_written_in_one_module_each():
    """Each private cache slot of Hypergroup is assigned, outside
    Hypergroup.__init__, in exactly one module of src/, the one that owns
    the cache, so a cache cannot spread across modules unnoticed."""
    slots = [name for name in schemehall.Hypergroup.__slots__ if name.startswith("_")]
    writers: dict[str, set[str]] = {name: set() for name in slots}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        init = {
            id(node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "Hypergroup"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and node.attr in writers and id(node) not in init
            ):
                writers[node.attr].add(path.name)
    spread = {slot: sorted(mods) for slot, mods in writers.items() if len(mods) != 1}
    assert not spread, f"Hypergroup caches not written in exactly one module: {spread}"


def test_pi_record_fields_are_written_in_one_module_each():
    """The scheme's pi-record has one writer per field: valenced and
    target are stored only in scheme.py, which builds the record, and
    family and context only in hall.py, which fills them on first
    success; the record's own __init__ starts those two at None.  A
    store to self.<field> in the method of another class sets that
    class's own attribute, such as a homomorphism's target, and is left
    out."""
    owner = {"valenced": "scheme.py", "target": "scheme.py", "family": "hall.py", "context": "hall.py"}
    assert set(schemehall.scheme._PiFacts.__slots__) == set(owner)
    writers: dict[str, set[str]] = {name: set() for name in owner}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                own |= {
                    id(node)
                    for node in ast.walk(cls)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and (cls.name != "_PiFacts" or owner[node.attr] == "hall.py")
                }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and node.attr in writers and id(node) not in own
            ):
                writers[node.attr].add(path.name)
    assert writers == {name: {module} for name, module in owner.items()}


def test_src_lines_counts_code_lines_only():
    """tools/src_lines.py leaves out blank lines, comment-only lines and
    module, class and function docstrings, and counts a code line that
    carries a trailing comment.  Its check sites are the raise statements
    of InternalInconsistencyError, called or bare, by name or through its
    module."""
    src_lines = _tool("src_lines")
    source = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment-only line\n"
        "import os  # a trailing comment\n"
        "\n"
        "\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function\n'
        "        docstring.\n"
        '        """\n'
        "        # an indented comment\n"
        '        x = "a string, not a docstring"\n'
        '        "a bare string after the first statement"\n'
        "        return x\n"
        "\n"
        "\n"
        "async def g():\n"
        "    'Async docstring.'\n"
        "    return os\n"
    )
    # code: import, class, def f, x =, the bare string, return x, async def, return os
    assert src_lines.line_counts(source) == (23, 8)
    # check sites: the three raises of InternalInconsistencyError, not the
    # other raise, the bare re-raise, nor the name in a docstring or comment
    source = (
        "from . import errors\n"
        "from .errors import InternalInconsistencyError, NotClosedError\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """raise InternalInconsistencyError("in a docstring")"""\n'
        "    if x == 1:\n"
        '        raise InternalInconsistencyError("called")\n'
        "    if x == 2:\n"
        "        raise InternalInconsistencyError\n"
        "    if x == 3:\n"
        '        raise errors.InternalInconsistencyError("through the module")\n'
        "    if x == 4:\n"
        '        raise NotClosedError("another error")  # InternalInconsistencyError\n'
        "    try:\n"
        "        return InternalInconsistencyError\n"
        "    except ValueError:\n"
        "        raise\n"
    )
    assert src_lines.check_sites(source) == 3


def test_src_coverage_lists_statements_only():
    """tools/src_coverage.py counts statements, each shown to have run by
    a line of its own or of its compound header, and leaves out
    docstrings, other bare strings, def, class and import lines, try and
    bare annotations.  A statement is unexecuted when none of those lines
    ran.  It runs no pytest."""
    src_coverage = _tool("src_coverage")
    source = (
        '"""Module docstring."""\n'           # 1
        "import os\n"                          # 2
        "from sys import path\n"               # 3
        "LIMIT: int\n"                         # 4: bare annotation
        "COUNT: int = 2\n"                     # 5
        "\n"
        "\n"
        "class A:\n"                           # 8
        '    """Class docstring."""\n'
        "\n"
        "    def f(self, x):\n"                # 11
        "        'Function docstring.'\n"
        "        if (x\n"                      # 13: a two-line header
        "                and path):\n"
        "            return os.sep\n"          # 15
        "        try:\n"                       # 16
        "            y = [\n"                  # 17: a three-line statement
        "                x,\n"
        "            ]\n"
        "        except ValueError:\n"
        "            raise\n"                  # 21
        "        for z in y:\n"                # 22
        "            pass\n"                   # 23
        '        "a bare string"\n'
        "        return y\n"                   # 25
    )
    assert {k: (r.start, r.stop) for k, r in src_coverage.statement_lines(source).items()} == {
        5: (5, 6), 13: (13, 15), 15: (15, 16), 17: (17, 20), 21: (21, 22),
        22: (22, 23), 23: (23, 24), 25: (25, 26),
    }
    assert src_coverage.unexecuted(source, {5, 14, 18, 22, 23, 25}) == [15, 21]
    assert src_coverage.unexecuted(source, set()) == [5, 13, 15, 17, 21, 22, 23, 25]


def test_ab_bench_summary_applies_both_rules():
    """tools/ab_bench.py's summary, on fixed numbers and with no bench
    run: per metric, each side's median and quartiles, the
    pairs the change read better in, by the direction BENCHMARK.json
    gives, and whether it read better in nine of ten pairs and by more
    than the parent's spread between quartiles.  A tie is no win.  The
    bound column reads "within" or "outside" the metric's bound, as a
    fraction of the parent's median, and "unresolved" when the parent's
    spread between quartiles is wider than that fraction, unless every
    change run reads better than every parent run."""
    ab_bench = _tool("ab_bench")
    metrics = [
        {"name": "items_per_s", "better": "higher", "bound": 0.25},
        {"name": "item_p90_ms", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        {"name": "item_p50_ms", "better": "lower", "bound": 0.25},
    ]
    columns = {
        "items_per_s": ([100, 102, 98, 101, 99, 100, 103, 97, 100, 101],
                        [110, 111, 109, 112, 108, 110, 113, 107, 110, 99]),
        "item_p90_ms": ([20, 21, 22, 23, 24, 20, 21, 22, 23, 24],
                        [21, 20, 23, 22, 25, 21, 22, 21, 24, 23]),
        "setup_s": ([1.0, 2.0, 1.5, 1.2, 1.8, 1.1, 1.9, 1.3, 1.7, 1.6],
                    [0.99, 1.99, 1.49, 1.19, 1.79, 1.09, 1.89, 1.29, 1.69, 1.6]),
        "peak_rss_mb": ([20] * 10, [23] * 9 + [21]),
        "item_p50_ms": ([10, 20] * 5, [5] * 10),
    }
    parent, change = (
        [{name: col[side][i] for name, col in columns.items()} for i in range(10)]
        for side in (0, 1)
    )
    assert ab_bench.summarize(parent, change, metrics) == [
        "metric                     parent median [q1, q3]             change median [q1, q3]"
        "     won  9/10  spread  bound",
        "items_per_s                   100 [98.75, 101.25]               110 [107.75, 111.25]"
        "    9/10  yes   yes     within",
        "item_p90_ms                     22 [20.75, 23.25]                     22 [21, 23.25]"
        "    4/10  no    no      within",
        "setup_s                       1.55 [1.175, 1.825]               1.545 [1.165, 1.815]"
        "    9/10  yes   no      unresolved",
        "peak_rss_mb                           20 [20, 20]                        23 [23, 23]"
        "    0/10  no    no      outside",
        "item_p50_ms                           15 [10, 20]                           5 [5, 5]"
        "   10/10  yes   no      within",
    ]
    assert ab_bench.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_call_medians_summary_credits_call_types():
    """tools/call_medians.py's summary, on fixed numbers and with no
    workload run: per call type, by descending sum, its item count, the
    sum of its item medians in ms and their median in us; then p50 and
    p90 of all item medians, as bench/run.py takes them, with the call
    types of the items at the two ranks each interpolates between."""
    call_medians = _tool("call_medians")
    calls = ["a", "b", "a", "c", "b", "a", "c", "a", "b", "c", "c"]
    us = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 30.0]
    assert call_medians.summarize(calls, [x * 1e-6 for x in us]) == [
        "call                    items  sum of medians (ms)  median (us)",
        "c                           4               0.0510        8.500",
        "a                           4               0.0180        4.500",
        "b                           3               0.0160        5.000",
        "p50 6.000 us, between items of a",
        "p90 10.000 us, between items of c",
    ]
    # an even count: the median falls between a "b" and a "c" item
    assert call_medians.summarize(["b", "c", "a", "c"], [2e-6, 4e-6, 1e-6, 3e-6])[-2:] == [
        "p50 2.500 us, between items of b, c",
        "p90 3.700 us, between items of c",
    ]


def test_valencies_are_given_to_the_hypergroup_constructor():
    """Hypergroup.valencies is set by Hypergroup.__init__ from its
    valencies argument, and no door assigns it to a built hypergroup.
    AssociationScheme.__init__ reads the scheme's own valencies off its
    hypergroup."""
    writers = sorted(
        f"{path.name}:{fn.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr == "valencies"
    )
    assert writers == ["hypergroup.py:__init__", "scheme.py:__init__"]
    init = next(
        fn for cls in ast.parse((SOURCE / "hypergroup.py").read_text()).body
        if isinstance(cls, ast.ClassDef) and cls.name == "Hypergroup"
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
    )
    assert "valencies" in [a.arg for a in init.args.args]


# public names whose only callers are tests, each with the reason it
# stays public; __version__ is metadata
TEST_ONLY_NAMES = {
    "bundled_scheme": "the user's way to the named schemes bundled under data/schemes",
    "bundled_scheme_names": "lists the names bundled_scheme accepts",
    "closure": "the user's way to a closed subset from generators; README's quick tour calls it",
    "fetch_catalogue": "downloads the full catalogue beyond the bundled orders; README names it",
    "is_normal_in": "the paper's normality of closed subsets, which the lemma battery states laws in",
    "kernel": "the kernel ker phi of a homomorphism, the paper's first isomorphism statement; "
    "criterion 4 builds ker phi with it",
    "subquotient": "the paper's T // F for closed F inside T; test_quotient.py checks it "
    "against the restriction-copy oracle",
    "theta_core": "the thin residue O^theta, the first step of the paper's residue series; "
    "README's quick tour calls it",
    "validate_homomorphism": "the user's check of a map between hypergroups; criterion 4 "
    "witnesses each isomorphism statement with it",
}


def test_public_names_only_tests_call_are_listed():
    """The names in schemehall.__all__ with no caller in src/, tools/ or
    bench/ are exactly the keys of TEST_ONLY_NAMES, so a new one fails
    here until it is added on purpose, with the reason it stays public."""
    files = [
        path
        for top in ("src", "tools", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
    ]
    used: set[str] = {"__version__"}
    for path in files:
        used |= _references(path)
    assert sorted(set(schemehall.__all__) - used) == sorted(TEST_ONLY_NAMES)
    assert all(reason.strip() for reason in TEST_ONLY_NAMES.values())


# public methods of __all__ classes whose only callers are tests, each
# with the reason it stays public
TEST_ONLY_MEMBERS = {
    "Hypergroup.is_thin_element": "the paper's thin element, h^h = {0}, asked of one element; "
    "is_thin reads the same cells for every element at once",
}
METHOD_TYPES = (
    types.FunctionType, property, functools.cached_property, staticmethod, classmethod,
)


def test_public_methods_only_tests_call_are_listed():
    """The public methods and properties of the classes in
    schemehall.__all__ whose name no file in src/, tools/ or bench/
    loads are exactly the keys of TEST_ONLY_MEMBERS, so a method only
    tests reach fails here until it is listed on purpose, with the reason
    it stays public."""
    files = [
        path
        for top in ("src", "tools", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
    ]
    used: set[str] = set()
    for path in files:
        used |= _references(path)
    classes = [
        (name, obj) for name in schemehall.__all__
        if isinstance(obj := getattr(schemehall, name), type)
    ]
    unused = [
        f"{name}.{attr}"
        for name, cls in classes
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and isinstance(value, METHOD_TYPES) and attr not in used
    ]
    assert sorted(unused) == sorted(TEST_ONLY_MEMBERS)
    assert all(reason.strip() for reason in TEST_ONLY_MEMBERS.values())


# public data slots of __all__ classes that no file in src/, tools/ or
# bench/ reads, each with the reason it stays
TEST_ONLY_SLOTS = {
    "HallCertificate.hyper_quotient": "G = S // O^theta(S), the thin quotient the certificate "
    "is computed in; lifted_subgroup, which bench/run.py reads, is a mask over its elements",
}


def _attribute_loads(path: Path) -> set[str]:
    """The attribute names a file reads as obj.name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_public_slots_only_tests_read_are_listed():
    """The public __slots__ names of the classes in schemehall.__all__
    that no file in src/, tools/ or bench/ reads as an attribute are
    exactly the keys of TEST_ONLY_SLOTS, so a data field only tests read
    fails here until it is listed on purpose, with the reason it stays.
    Only attribute loads count: a parameter of the same name or the
    __slots__ string itself is no reader."""
    read: set[str] = set()
    for top in ("src", "tools", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            read |= _attribute_loads(path)
    unread = []
    for name in schemehall.__all__:
        cls = getattr(schemehall, name)
        if not isinstance(cls, type):
            continue
        slots = vars(cls).get("__slots__", ())
        for slot in (slots,) if isinstance(slots, str) else slots:
            if not slot.startswith("_") and slot not in read:
                unread.append(f"{name}.{slot}")
    assert sorted(unread) == sorted(TEST_ONLY_SLOTS)
    assert all(reason.strip() for reason in TEST_ONLY_SLOTS.values())


def test_closed_subset_has_no_subclass():
    """A closed set of relations is a ClosedSubset of the scheme's
    hypergroup, which carries the valencies: once every submodule is
    imported, no type wraps ClosedSubset to add them again."""
    for info in pkgutil.iter_modules(schemehall.__path__):
        importlib.import_module(f"schemehall.{info.name}")
    assert schemehall.ClosedSubset.__subclasses__() == []


def test_only_closed_subset_calls_the_checking_constructor():
    """AssociationScheme.closed_subset is the one place in src/ that
    calls ClosedSubset(...), whose constructor checks its input closed;
    every other library result is closed by a proof the library holds,
    and is built through hypergroup._closed, so no library path pays
    the check."""
    calls = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        scopes += [
            (f"{cls.name}.{fn.name}", fn)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
        ]
        owner = {id(node): name for name, fn in scopes for node in ast.walk(fn)}
        calls += [
            (path.name, owner.get(id(node), "<module>"))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "ClosedSubset" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    assert calls == [("scheme.py", "AssociationScheme.closed_subset")]


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


def test_each_public_name_has_one_declaring_module():
    """Each name in schemehall.__all__ but __version__ is in exactly one
    submodule's __all__: the one module that defines it, and the one the
    bench tracer looks it up in."""
    homes: dict[str, list[str]] = {}
    for info in pkgutil.iter_modules(schemehall.__path__):
        module = importlib.import_module(f"schemehall.{info.name}")
        for name in getattr(module, "__all__", ()):
            homes.setdefault(name, []).append(info.name)
    wrong = {
        name: homes.get(name, [])
        for name in schemehall.__all__
        if name != "__version__" and len(homes.get(name, [])) != 1
    }
    assert not wrong, f"public names not declared in exactly one submodule: {wrong}"


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


def test_readme_quick_tour_runs(monkeypatch):
    """The python block under "## Library quick tour" runs from the repo
    root, and each bare expression in it gives the value its comment
    states."""
    tour = (ROOT / "README.md").read_text().split("## Library quick tour\n", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            shown.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert shown == [
        (1, 1, 1, 1, 4, 4, 4, 4, 4, 4),  # s.valencies
        4,  # a_{4,9,0}
        (0, 1, 2, 3),  # the Hall {2}-subset
        7,  # its index
        4,  # t4.valency
        True,  # is_subnormal
        True,  # is_solvable
        (0, 1, 2, 3),  # the theta core
        [1, 2, 4, 10],  # the chain sizes
        (2, 2, 7),  # chain.step_primes
        (2, 2, 7),  # solvable_chain_scheme(s).step_primes
    ]
    assert namespace["q"].size == 7
