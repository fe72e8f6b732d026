"""Cayley tables for small groups, plus subgroup utilities.

Tables are tuples of tuples with table[x][g] = xg and the identity at
index 0.  Subgroups are bitmasks over element indices.  Everything here
is sized for groups of order at most a few hundred.  Only validation
reads the index table: past it a group is its thin hypergroup, whose
closure_mask generates subgroups, whose closed subsets are its
subgroups, whose single-bit cells give the commutators of the derived
series, and whose conjugation kernel and conjugator search in
hypergroup conjugate them.
"""
from __future__ import annotations

from collections.abc import Sequence
from itertools import permutations

from .errors import NotAGroupError
from .hypergroup import (
    Hypergroup,
    _conjugators,
    _generators,
    _prove_group,
    bits_of,
    enumerate_closed_subsets,
)

__all__ = [
    "validate_group",
    "cyclic",
    "dihedral",
    "dicyclic",
    "quaternion",
    "symmetric",
    "alternating",
    "direct_product",
    "thin_hypergroup",
]

Table = tuple[tuple[int, ...], ...]


def validate_group(table: Sequence[Sequence[int]]) -> Table:
    """Check the group axioms on a raw Cayley table.

    Requires a square table over 0..n-1 whose rows and columns are
    permutations, an identity at index 0, two-sided inverses and full
    associativity.  Raises NotAGroupError naming the failed axiom.
    """
    return _proved_group(table, "")[0]


def _proved_group(table: Sequence[Sequence[int]], name: str) -> tuple[Table, Hypergroup]:
    """validate_group's input checks, then the group proof,
    hypergroup._prove_group, on the thin hypergroup they build."""
    n = len(table)
    if n == 0:
        raise NotAGroupError("empty table")
    rows = []
    for x, row in enumerate(table):
        if len(row) != n:
            raise NotAGroupError(f"row {x} has length {len(row)}, expected {n}")
        for v in row:
            if type(v) is not int:  # bool is an int subclass
                raise NotAGroupError(f"entry {v!r} in row {x} is not an integer")
            if not 0 <= v < n:
                raise NotAGroupError(f"entry {v} in row {x} outside 0..{n - 1}")
        rows.append(tuple(row))
    t = tuple(rows)
    masks = tuple(tuple(1 << v for v in row) for row in t)
    hg = Hypergroup(masks, group_inverse(t), name=name, valencies=(1,) * n)
    _prove_group(hg, t)
    return t, hg


def group_inverse(table: Table) -> tuple[int, ...]:
    """inv[x] is the right inverse of x: the first y with xy = 0, or -1
    when row x holds no 0, which the group proof refuses as not a
    permutation before it reads the inverse."""
    return tuple(row.index(0) if 0 in row else -1 for row in table)


# ---------------------------------------------------------------------------
# constructors


def cyclic(n: int) -> Table:
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def dihedral(n: int) -> Table:
    """Dihedral group of order 2n: indices f*n + r for s^f rot^r."""
    if n < 1:
        raise ValueError("dihedral(n) needs n >= 1")

    def mul(x: int, y: int) -> int:
        f1, r1 = divmod(x, n)
        f2, r2 = divmod(y, n)
        f = (f1 + f2) % 2
        r = ((-r1 if f2 else r1) + r2) % n
        return f * n + r

    return tuple(tuple(mul(x, y) for y in range(2 * n)) for x in range(2 * n))


def dicyclic(n: int) -> Table:
    """Dicyclic group of order 4n: a of order 2n, b^2 = a^n, b a b^-1 = a^-1."""
    if n < 2:
        raise ValueError("dicyclic(n) needs n >= 2")
    m = 2 * n

    def mul(x: int, y: int) -> int:
        f1, r1 = divmod(x, m)
        f2, r2 = divmod(y, m)
        if f1 == 0 and f2 == 0:
            return (r1 + r2) % m
        if f1 == 0:
            return m + (r1 + r2) % m
        if f2 == 0:
            return m + (r1 - r2) % m
        return (n + r1 - r2) % m

    return tuple(tuple(mul(x, y) for y in range(4 * n)) for x in range(4 * n))


def quaternion() -> Table:
    return dicyclic(2)


def _perm_group(perms: list[tuple[int, ...]]) -> Table:
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = []
    for p in perms:
        row = []
        for q in perms:
            # composition: apply p first, then q
            row.append(index[tuple(q[p[i]] for i in range(len(p)))])
        table.append(tuple(row))
    return tuple(table)


def symmetric(n: int) -> Table:
    """Symmetric group on n letters; identity is lexicographically first."""
    return _perm_group([p for p in permutations(range(n))])


def _is_even(p: tuple[int, ...]) -> bool:
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity == 0


def alternating(n: int) -> Table:
    return _perm_group([p for p in permutations(range(n)) if _is_even(p)])


def direct_product(g1: Table, g2: Table) -> Table:
    n1, n2 = len(g1), len(g2)

    def mul(x: int, y: int) -> int:
        a1, a2 = divmod(x, n2)
        b1, b2 = divmod(y, n2)
        return g1[a1][b1] * n2 + g2[a2][b2]

    return tuple(tuple(mul(x, y) for y in range(n1 * n2)) for x in range(n1 * n2))


def thin_hypergroup(table: Sequence[Sequence[int]], name: str = "") -> Hypergroup:
    """The group as a hypergroup with singleton products; validate_group's
    proof of the group axioms, run on this hypergroup, is its proof of
    H1-H3.  It is the relation hypergroup of the group's thin scheme, so
    it carries valency 1 on every element."""
    return _proved_group(table, name)[1]


# ---------------------------------------------------------------------------
# subgroups


def _derived_series(hg: Hypergroup) -> list[int]:
    """The derived series G > G' > G'' > ... of the thin hypergroup hg,
    as subgroup masks, ending at {1} or at the first step that stops
    shrinking (a nontrivial perfect subgroup).  Each step D' is closed
    from the commutators [x, y] = x^-1 y^-1 x y, read off the single-bit
    cells, with y in D and x in D's _generators.  That is exact: the
    subgroup N they generate is normal in D, as [x, y]^g =
    [x, g]^-1 [x, yg], so each generator x of D is central modulo N,
    D / N is abelian, and N holds every commutator of D."""
    rows, inv = hg.table, hg.inverse
    series = [hg.full_mask]
    while series[-1] != 1:
        members = bits_of(series[-1])
        commutators = 0
        for x in bits_of(_generators(hg, series[-1])):
            row_ix, row_x = rows[inv[x]], rows[x]
            for y in members:
                commutators |= rows[row_ix[inv[y]].bit_length() - 1][row_x[y].bit_length() - 1]
        nxt = hg.closure_mask(commutators)
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def is_solvable_group(hg: Hypergroup) -> bool:
    """Whether the derived series of the thin hypergroup hg reaches the
    trivial subgroup."""
    return _derived_series(hg)[-1] == 1


def all_subgroups(table: Table) -> tuple[int, ...]:
    """Every subgroup, as masks sorted by (order, member tuple): the
    closed subsets of the thin hypergroup, which validates the table,
    from enumerate_closed_subsets' lattice walk."""
    return tuple(c.bits for c in enumerate_closed_subsets(thin_hypergroup(table)))


def find_subgroup_conjugator(table: Table, sub_a: int, sub_b: int) -> int | None:
    """Smallest g with g^-1 A g = B, or None; the table is validated and
    each mask read through Hypergroup.subset, which raises ValueError on
    one out of range."""
    hg = thin_hypergroup(table)
    a, b = hg.subset(sub_a).bits, hg.subset(sub_b).bits
    return next(_conjugators(hg, a, b, hg.full_mask), None)
