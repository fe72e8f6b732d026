"""Seeded benchmark inputs.

Seed s relabels every input: the points of a scheme by one seeded
permutation and its non-identity relation labels by another.  Seed 0
is the identity, so it reproduces the bundled matrices exactly.  Group
inputs are relabelled by a seeded permutation of the non-identity
elements, which moves the points and the relations of the thin scheme
together.  Every answer the benchmark checks is label-invariant, so
all seeds are checked against the same frozen facts.
"""
from __future__ import annotations

import itertools
import random

import schemehall as sh

Matrix = tuple[tuple[int, ...], ...]

PI_SUBSETS: tuple[frozenset[int], ...] = tuple(
    frozenset(p)
    for k in range(5)
    for p in itertools.combinations((2, 3, 5, 7), k)
)
HALL_MAX_ORDER = 12


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _perm_fixing_zero(rng: random.Random, n: int) -> list[int]:
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def relabel_matrix(matrix: Matrix, seed: int, name: str) -> Matrix:
    """Permute points and non-identity relation labels; seed 0 is identity."""
    n = len(matrix)
    if seed == 0:
        return tuple(tuple(row) for row in matrix)
    rng = _rng(seed, name)
    rank = 1 + max(max(row) for row in matrix)
    points = list(range(n))
    rng.shuffle(points)
    label = _perm_fixing_zero(rng, rank)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        row = matrix[x]
        ox = out[points[x]]
        for y in range(n):
            ox[points[y]] = label[row[y]]
    return tuple(tuple(row) for row in out)


def relabel_group(table: Matrix, seed: int, name: str) -> Matrix:
    """An isomorphic Cayley table; the identity stays at 0."""
    if seed == 0:
        return tuple(tuple(row) for row in table)
    n = len(table)
    sigma = _perm_fixing_zero(_rng(seed, name), n)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[sigma[a]][sigma[b]] = sigma[table[a][b]]
    return tuple(tuple(row) for row in out)


def scheme_text(name: str, matrix: Matrix) -> str:
    """A scheme file body in the canonical layout of render_scheme."""
    rank = 1 + max(max(row) for row in matrix)
    lines = [f"# name: {name}", f"{len(matrix)} {rank}"]
    lines.extend(" ".join(map(str, row)) for row in matrix)
    return "\n".join(lines) + "\n"


def bundled_matrices() -> dict[str, Matrix]:
    """Every bundled catalogue scheme by name, in catalogue order."""
    return {
        sf.name: sf.matrix
        for order in sh.bundled_orders()
        for sf in sh.bundled_catalogue(order)
    }


# ---------------------------------------------------------------------------
# workloads


def catalogue_inputs(seed: int, max_order: int | None = None) -> list[tuple[str, str]]:
    """(name, text) for the bundled catalogue schemes, sorted by name."""
    return sorted(
        (name, scheme_text(name, relabel_matrix(m, seed, name)))
        for name, m in bundled_matrices().items()
        if max_order is None or len(m) <= max_order
    )


def hall_inputs(seed: int) -> tuple[list[tuple[str, str]], list[tuple[str, Matrix]]]:
    """Scheme texts of order <= 12 and relabelled bundled group tables."""
    schemes = catalogue_inputs(seed, HALL_MAX_ORDER)
    groups = [
        (name, relabel_group(sh.bundled_group(name).table, seed, name))
        for name in sh.bundled_group_names()
    ]
    return schemes, groups
