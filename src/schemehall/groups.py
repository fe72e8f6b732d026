"""Cayley tables for small groups, plus subgroup utilities.

Tables are tuples of tuples with table[x][g] = xg and the identity at
index 0.  Subgroups are bitmasks over element indices.  Everything here
is sized for groups of order at most a few hundred.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import permutations

from .errors import NotAGroupError
from .hypergroup import (
    Hypergroup,
    _associativity_witness,
    _right_generators,
    bits_of,
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
    for x in range(n):
        if len(set(t[x])) != n:
            raise NotAGroupError(f"row {x} is not a permutation")
        if len({t[y][x] for y in range(n)}) != n:
            raise NotAGroupError(f"column {x} is not a permutation")
    for x in range(n):
        if t[x][0] != x or t[0][x] != x:
            raise NotAGroupError("index 0 is not a two-sided identity")
    inv = group_inverse(t)
    for x in range(n):
        if t[inv[x]][x] != 0:
            raise NotAGroupError(f"element {x} has no two-sided inverse")
    witness = _associativity_witness(t)
    if witness is not None:
        raise NotAGroupError("associativity fails at ({}, {}, {})".format(*witness))
    return t


def group_inverse(table: Table) -> tuple[int, ...]:
    """inv[x] is the right inverse of x: the first y with xy = 0."""
    return tuple(row.index(0) for row in table)


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
    proof of the group axioms is its proof of H1-H3."""
    t = validate_group(table)
    hg = Hypergroup(tuple(tuple(1 << v for v in row) for row in t), group_inverse(t), name=name)
    hg._thin_table = t
    return hg


# ---------------------------------------------------------------------------
# subgroups


def generated_subgroup(table: Table, gens: int) -> int:
    """Mask of the subgroup generated by the masked elements: 1 and gens
    closed under right multiplication by gens, which in a finite group
    holds the inverses too.  Each round multiplies only the new elements."""
    right = bits_of(gens)
    cur = new = gens | 1
    while new:
        nxt = 0
        for a in bits_of(new):
            row = table[a]
            for b in right:
                nxt |= 1 << row[b]
        new = nxt & ~cur
        cur |= new
    return cur


def _derived_series(table: Table) -> list[int]:
    """The derived series G > G' > G'' > ... as subgroup masks, ending at
    {1} or at the first step that stops shrinking (a nontrivial perfect
    subgroup).  Each step D' is closed from the commutators
    [x, y] = x^-1 y^-1 x y with x in a generating set of D and y in D.
    That is exact: the subgroup N they generate is normal in D, as
    [x, y]^g = [x, g]^-1 [x, yg], so each generator x of D is central
    modulo N, D / N is abelian, and N holds every commutator of D."""
    inv = group_inverse(table)
    series = [(1 << len(table)) - 1]
    while series[-1] != 1:
        members = bits_of(series[-1])
        commutators = 0
        for x in _right_generators(table, members):
            row_ix, row_x = table[inv[x]], table[x]
            for y in members:
                commutators |= 1 << table[row_ix[inv[y]]][row_x[y]]
        nxt = generated_subgroup(table, commutators)
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def is_solvable_group(table: Table) -> bool:
    """Whether the derived series reaches the trivial subgroup."""
    return _derived_series(table)[-1] == 1


def all_subgroups(table: Table) -> tuple[int, ...]:
    """Every subgroup, by closing one added generator at a time.

    Deterministic output sorted by (order, member tuple).  This is the
    blunt enumeration the tests use as an oracle; it is exhaustive
    because any subgroup is reached by adding its elements one by one.
    """
    n = len(table)
    found = {1}
    work = [1]
    while work:
        cur = work.pop()
        for g in range(1, n):
            if cur >> g & 1:
                continue
            ext = generated_subgroup(table, cur | 1 << g)
            if ext not in found:
                found.add(ext)
                work.append(ext)
    return tuple(sorted(found, key=lambda m: (m.bit_count(), bits_of(m))))


def _conjugates(table: Table, sub: int, gs: Iterable[int]) -> Iterator[int]:
    """The subgroups g^-1 (sub) g for g in gs, in that order.

    The members of sub are listed once; each g^-1 is found as it is
    reached, so a caller that stops early pays for no other inverse.
    """
    members = bits_of(sub)
    for g in gs:
        row = table[table[g].index(0)]
        conj = 0
        for x in members:
            conj |= 1 << table[row[x]][g]
        yield conj


def _right_transversal(table: Table, sub: int) -> list[int]:
    """The least element of each right coset (sub) g, in ascending order."""
    members = bits_of(sub)
    covered = 0
    reps = []
    for g in range(len(table)):
        if not covered >> g & 1:
            reps.append(g)
            for h in members:
                covered |= 1 << table[h][g]
    return reps


def find_subgroup_conjugator(table: Table, sub_a: int, sub_b: int) -> int | None:
    """Smallest g with g^-1 A g = B, or None."""
    for g, conj in enumerate(_conjugates(table, sub_a, range(len(table)))):
        if conj == sub_b:
            return g
    return None
