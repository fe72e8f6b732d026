"""Shared fixtures: corpus loaders and the acceptance summary hook."""
from __future__ import annotations

import functools
import itertools

import pytest

import schemehall as sh


@functools.cache
def catalogue_schemes(max_order: int) -> tuple:
    """Every bundled scheme of order <= max_order, validated."""
    out = []
    for order in sh.bundled_orders():
        if order > max_order:
            continue
        for sf in sh.bundled_catalogue(order):
            out.append(sf.scheme())
    return tuple(out)


@functools.cache
def corpus_hypergroups(max_size: int) -> tuple:
    """Hypergroups induced by bundled schemes, up to max_size elements.

    Deduplicated by table so each distinct structure is checked once;
    thin hypergroups of the bundled groups of fitting order are added
    on top (most coincide with ones induced by thin schemes).
    """
    seen = {}
    for s in catalogue_schemes(12):
        hg = s.hypergroup
        if hg.size <= max_size:
            seen.setdefault((hg.table, hg.inverse), hg)
    for name in sh.bundled_group_names():
        gf = sh.bundled_group(name)
        if gf.order <= max_size:
            hg = sh.thin_hypergroup(gf.table)
            seen.setdefault((hg.table, hg.inverse), hg)
    return tuple(seen.values())


def row_reading_copy(hg: sh.Hypergroup) -> tuple:
    """A fresh copy of hg whose product table lists, in order, the index
    of every row read from it, and that list."""
    reads = []

    class Rows(tuple):
        def __getitem__(self, i):
            reads.append(i)
            return tuple.__getitem__(self, i)

    return sh.Hypergroup(Rows(hg.table), hg.inverse, hg.name), reads


@functools.cache
def product_matrices() -> tuple:
    """(name, matrix) for wreath and tensor products of bundled schemes on
    14 to 96 points: thin ones, solvable non-thin ones with three to seven
    distinct valencies, and two that are not solvable."""
    cat = {o: [sf.scheme() for sf in sh.bundled_catalogue(o)] for o in range(2, 13)}
    named = {n: sh.bundled_scheme(n).scheme() for n in ("pentagon", "petersen")}
    build = {"wreath": sh.wreath_matrix, "tensor": sh.tensor_matrix}
    picks = [
        ("tensor", (2, 0), (7, -1)),
        ("tensor", (5, 0), (3, 0)),
        ("wreath", (4, 1), (6, 4)),
        ("tensor", (9, 6), (4, 1)),
        ("tensor", (6, 4), (8, 6)),
        ("tensor", (8, -1), (6, -1)),
        ("wreath", (12, 16), (6, 3)),
        ("wreath", (8, 6), (12, 16)),
        ("tensor", (8, 3), (12, 16)),
        ("wreath", (12, -1), (8, -1)),
        ("tensor", (12, -1), (8, -1)),
    ]
    out = [
        (f"{kind} {a}:{i} {b}:{j}", build[kind](cat[a][i], cat[b][j]))
        for kind, (a, i), (b, j) in picks
    ]
    out.append(("wreath petersen pentagon", sh.wreath_matrix(named["petersen"], named["pentagon"])))
    return tuple(out)


@functools.cache
def group_schemes() -> tuple:
    """Thin schemes of the 38 bundled groups and of A5."""
    out = [sh.from_group(sh.bundled_group(n).table, name=n) for n in sh.bundled_group_names()]
    out.append(sh.from_group(sh.alternating(5), name="a5"))
    return tuple(out)


@functools.cache
def residue_corpus() -> tuple:
    """The catalogue to order 28, the twelve product schemes and the
    group schemes: 187 schemes, 72 of them not solvable."""
    products = tuple(sh.validate_scheme(m, name=name) for name, m in product_matrices())
    return catalogue_schemes(28) + products + group_schemes()


@pytest.fixture(scope="session")
def corpus12():
    return catalogue_schemes(12)


@pytest.fixture(scope="session")
def corpus10():
    return catalogue_schemes(10)


@pytest.fixture(scope="session")
def hypergroups8():
    return corpus_hypergroups(8)


@pytest.fixture(scope="session")
def hypergroups10():
    return corpus_hypergroups(10)


ALL_PI = tuple(
    frozenset(p)
    for k in range(5)
    for p in itertools.combinations((2, 3, 5, 7), k)
)


# --- acceptance summary -----------------------------------------------------
#
# test_acceptance.py holds one test per numbered criterion; after the run
# a one-line verdict per criterion is printed so the result can be read
# without scanning the whole pytest output.

CRITERIA = {
    1: "order-28 catalogue scheme located by its stated properties, Hall {2}-certificate n_T=4 index 7",
    2: "Hall existence, conjugacy, extension on every solvable pi-valenced corpus scheme (order <= 12)",
    3: "group correspondence: find_hall matches brute-force Hall subgroups on bundled groups (order <= 24)",
    4: "three isomorphism statements witnessed on hypergroups of corpus schemes (order <= 10)",
    5: "quotient coincidence and valency law on every corpus scheme and closed subset",
    6: "closure and closed-subset enumeration agree with power-set oracles (rank <= 12)",
    7: "lemma battery exhaustive on the order <= 8 hypergroup corpus",
}

_acceptance_results: dict[int, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    for num in CRITERIA:
        if f"criterion_{num}" in report.nodeid:
            if report.when == "call":
                _acceptance_results[num] = "PASS" if report.passed else "FAIL"
            elif report.when == "setup" and (report.failed or report.skipped):
                _acceptance_results[num] = "FAIL" if report.failed else "SKIP"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        verdict = _acceptance_results.get(num, "NOT RUN")
        terminalreporter.write_line(f"criterion {num}: {verdict} - {CRITERIA[num]}")
