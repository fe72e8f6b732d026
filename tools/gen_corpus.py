#!/usr/bin/env python3
"""Generate the vendored corpus under src/schemehall/data/.

Schemes of order <= 12 are produced locally:

  seeds    thin schemes of every group of each order, rank-2 trivial
           schemes, and orbital schemes of coset actions of a library
           of permutation and abstract groups;
  closure  fusions (coarsenings that stay schemes), opposites, wreath
           and tensor products of corpus members, iterated to fixpoint;
  dedupe   exact isomorphism (point bijection plus induced relation
           bijection), bucketed by a relabeling-invariant fingerprint.

Every candidate matrix is accepted only if validate_scheme passes.
The script prints per-order tallies next to the published
classification counts for the same orders so a shortfall is visible;
it asserts only the facts it can verify internally (thin schemes per
order match the group library, small translation-scheme counts match
an independent brute-force oracle).

Also writes the order-28 bundle, the named .scm examples, and the
.grp Cayley tables used by the tests.
"""
from __future__ import annotations

import itertools
import sys
from pathlib import Path

import schemehall as sh
from schemehall.errors import SchemeAxiomError
from schemehall.groups import Table, all_subgroups, group_inverse
from schemehall.hypergroup import bits_of
from schemehall.scheme import AssociationScheme, Matrix, tensor_matrix, wreath_matrix

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "schemehall" / "data"

MAX_ORDER = 12

# published classification tallies for orders 1..12, printed for comparison
PUBLISHED = {1: 1, 2: 1, 3: 2, 4: 4, 5: 3, 6: 8, 7: 4, 8: 21, 9: 12, 10: 13, 11: 4, 12: 59}


# ---------------------------------------------------------------------------
# group library


def perm_group(gens: list[tuple[int, ...]]) -> Table:
    """Cayley table of the permutation group generated by gens."""
    deg = len(gens[0])
    ident = tuple(range(deg))
    elems = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(deg))
                if q not in seen:
                    seen.add(q)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    elems.sort()
    elems.remove(ident)
    elems.insert(0, ident)
    index = {p: i for i, p in enumerate(elems)}
    table = tuple(
        tuple(index[tuple(q[p[i]] for i in range(deg))] for q in elems)
        for p in elems
    )
    return sh.validate_group(table)


def affine_group(mod: int, mult: int) -> Table:
    """x -> a*x + b on Z_mod, a running over powers of mult."""
    shift = tuple((x + 1) % mod for x in range(mod))
    scale = tuple((mult * x) % mod for x in range(mod))
    return perm_group([shift, scale])


def plane_group(mat: tuple[tuple[int, int], tuple[int, int]] | None = None,
                extra: tuple[int, ...] | None = None) -> Table:
    """Translations of Z3 x Z3, extended by a matrix or a raw permutation."""
    pts = [(i, j) for i in range(3) for j in range(3)]
    idx = {p: k for k, p in enumerate(pts)}
    t1 = tuple(idx[((i + 1) % 3, j)] for i, j in pts)
    t2 = tuple(idx[(i, (j + 1) % 3)] for i, j in pts)
    gens = [t1, t2]
    if mat is not None:
        (a, b), (c, d) = mat
        gens.append(tuple(idx[((a * i + b * j) % 3, (c * i + d * j) % 3)] for i, j in pts))
    if extra is not None:
        gens.append(extra)
    return perm_group(gens)


def sl23() -> Table:
    """SL(2,3) as permutations of the 8 nonzero vectors over GF(3)."""
    vecs = [(i, j) for i in range(3) for j in range(3) if (i, j) != (0, 0)]
    idx = {v: k for k, v in enumerate(vecs)}

    def act(a, b, c, d):
        return tuple(idx[((a * i + b * j) % 3, (c * i + d * j) % 3)] for i, j in vecs)

    return perm_group([act(1, 1, 0, 1), act(0, 2, 1, 0)])


def group_library() -> list[tuple[str, Table]]:
    """Groups whose thin schemes and coset actions seed the corpus."""
    lib: list[tuple[str, Table]] = []
    for n in range(1, 13):
        lib.append((f"C{n}", sh.cyclic(n)))
    lib += [
        ("C2xC2", sh.direct_product(sh.cyclic(2), sh.cyclic(2))),
        ("C4xC2", sh.direct_product(sh.cyclic(4), sh.cyclic(2))),
        ("C2xC2xC2", sh.direct_product(sh.cyclic(2), sh.direct_product(sh.cyclic(2), sh.cyclic(2)))),
        ("C3xC3", sh.direct_product(sh.cyclic(3), sh.cyclic(3))),
        ("C6xC2", sh.direct_product(sh.cyclic(6), sh.cyclic(2))),
    ]
    for n in range(3, 13):
        lib.append((f"D{n}", sh.dihedral(n)))
    pts = [(i, j) for i in range(3) for j in range(3)]
    idx = {p: k for k, p in enumerate(pts)}
    swap = tuple(idx[(j, i)] for i, j in pts)
    lib += [
        ("Q8", sh.quaternion()),
        ("Dic3", sh.dicyclic(3)),
        ("Dic4", sh.dicyclic(4)),
        ("Dic5", sh.dicyclic(5)),
        ("Dic6", sh.dicyclic(6)),
        ("A4", sh.alternating(4)),
        ("S4", sh.symmetric(4)),
        ("A5", sh.alternating(5)),
        ("S5", sh.symmetric(5)),
        ("SL23", sl23()),
        ("C2xD4", sh.direct_product(sh.cyclic(2), sh.dihedral(4))),
        ("C2xQ8", sh.direct_product(sh.cyclic(2), sh.quaternion())),
        ("C2xA4", sh.direct_product(sh.cyclic(2), sh.alternating(4))),
        ("C2xD6", sh.direct_product(sh.cyclic(2), sh.dihedral(6))),
        ("C3xS3", sh.direct_product(sh.cyclic(3), sh.symmetric(3))),
        ("C4xS3", sh.direct_product(sh.cyclic(4), sh.symmetric(3))),
        ("C3xD4", sh.direct_product(sh.cyclic(3), sh.dihedral(4))),
        ("C3xQ8", sh.direct_product(sh.cyclic(3), sh.quaternion())),
        ("C2xC12", sh.direct_product(sh.cyclic(2), sh.cyclic(12))),
        ("F20", affine_group(5, 2)),
        ("F21", affine_group(7, 2)),
        ("F55", affine_group(11, 3)),
        ("E9.C2", plane_group(((2, 0), (0, 2)))),
        ("E9.C4", plane_group(((0, 2), (1, 0)))),
        ("C3wrC2", plane_group(extra=swap)),
    ]
    return lib


GROUPS_PER_ORDER = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1, 12: 5}


# ---------------------------------------------------------------------------
# constructions


def trivial_matrix(n: int) -> Matrix:
    return tuple(tuple(0 if x == y else 1 for y in range(n)) for x in range(n))


def orbital_matrix(table: Table, sub: int) -> Matrix:
    """Orbital scheme of the action on right cosets of the subgroup.

    Pairs of cosets (Hx, Hy) are labeled by the double coset of y*x^-1;
    the double coset of the identity is labeled first, so the diagonal
    gets 0.
    """
    n = len(table)
    inv = group_inverse(table)
    members = list(bits_of(sub))
    coset_of = [-1] * n
    reps: list[int] = []
    for x in range(n):
        if coset_of[x] == -1:
            for h in members:
                coset_of[table[h][x]] = len(reps)
            reps.append(x)
    dc_of = [-1] * n
    labels = 0
    for z in range(n):
        if dc_of[z] == -1:
            for a in members:
                za = table[a][z]
                for b in members:
                    dc_of[table[za][b]] = labels
            labels += 1
    return tuple(
        tuple(dc_of[table[y][inv[x]]] for y in reps)
        for x in reps
    )


def opposite_matrix(s: AssociationScheme) -> Matrix:
    n = s.n_points
    return tuple(tuple(s.rel[y][x] for y in range(n)) for x in range(n))


# ---------------------------------------------------------------------------
# fusion: coarsenings of the relation partition that remain schemes


def set_partitions(items: list[int]):
    """All partitions of the item list (recursive, first item grouped last)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def fusion_matrices(s: AssociationScheme) -> list[Matrix]:
    """Proper coarsenings of s that pass the scheme axioms."""
    k = s.rank
    if k <= 2:
        return []
    star = s.star_map
    out = []
    for cells in set_partitions(list(range(1, k))):
        if len(cells) == k - 1:
            continue  # the all-singletons partition is s itself
        cell_sets = {frozenset(c) for c in cells}
        if any(frozenset(star[x] for x in c) not in cell_sets for c in cell_sets):
            continue
        idx = {0: 0}
        for j, c in enumerate(sorted(cells, key=min), start=1):
            for x in c:
                idx[x] = j
        fused = tuple(tuple(idx[v] for v in row) for row in s.rel)
        try:
            sh.validate_scheme(fused)
        except SchemeAxiomError:
            continue
        out.append(fused)
    return out


# ---------------------------------------------------------------------------
# isomorphism testing and the registry


def fingerprint(s: AssociationScheme) -> tuple:
    per_rel = sorted(
        (
            s.valencies[r],
            s.valencies[s.star_map[r]],
            r == s.star_map[r],
            tuple(sorted(x for row in s.intersection_numbers(r) for x in row)),
        )
        for r in range(s.rank)
    )
    return (s.n_points, s.rank, tuple(per_rel))


def isomorphic(s1: AssociationScheme, s2: AssociationScheme) -> bool:
    """Exact test: point bijection carrying relations to relations."""
    n = s1.n_points
    if n != s2.n_points or s1.rank != s2.rank:
        return False
    r1, r2 = s1.rel, s2.rel
    cmap: dict[int, int] = {0: 0}
    cinv: dict[int, int] = {0: 0}

    def bind(c1: int, c2: int, trail: list[int]) -> bool:
        if c1 in cmap:
            return cmap[c1] == c2
        if c2 in cinv:
            return False
        if s1.valencies[c1] != s2.valencies[c2]:
            return False
        cmap[c1] = c2
        cinv[c2] = c1
        trail.append(c1)
        return bind(s1.star_map[c1], s2.star_map[c2], trail)

    f = [-1] * n
    used = [False] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        for y in range(n):
            if used[y]:
                continue
            trail: list[int] = []
            ok = True
            for j in range(i):
                if not bind(r1[i][j], r2[y][f[j]], trail) or not bind(
                    r1[j][i], r2[f[j]][y], trail
                ):
                    ok = False
                    break
            if ok:
                f[i] = y
                used[y] = True
                if place(i + 1):
                    return True
                f[i] = -1
                used[y] = False
            for c in reversed(trail):
                del cinv[cmap[c]]
                del cmap[c]
        return False

    return place(0)


class Registry:
    def __init__(self) -> None:
        self.by_order: dict[int, list[AssociationScheme]] = {}
        self._buckets: dict[tuple, list[AssociationScheme]] = {}

    def add(self, matrix: Matrix, name: str = "") -> AssociationScheme | None:
        """Validate and register; None when already present up to iso."""
        scheme = sh.validate_scheme(matrix, name=name)
        bucket = self._buckets.setdefault(fingerprint(scheme), [])
        for known in bucket:
            if isomorphic(known, scheme):
                return None
        bucket.append(scheme)
        self.by_order.setdefault(scheme.n_points, []).append(scheme)
        return scheme

    def all_schemes(self) -> list[AssociationScheme]:
        return [s for order in sorted(self.by_order) for s in self.by_order[order]]


# ---------------------------------------------------------------------------
# independent oracle: translation schemes over small groups


def sring_count_oracle(table: Table) -> int:
    """Brute-force count of translation schemes over a group of order <= 6.

    Partitions the non-identity elements directly and checks constancy
    of the convolution coefficients from scratch; shares no scheme code
    with the fusion route.
    """
    n = len(table)
    inv = group_inverse(table)
    count = 0
    for cells in set_partitions(list(range(1, n))):
        cell_of = {0: -1}
        for ci, c in enumerate(cells):
            for x in c:
                cell_of[x] = ci
        as_sets = {frozenset(c) for c in cells}
        if any(frozenset(inv[x] for x in c) not in as_sets for c in as_sets):
            continue
        ok = True
        for ca in cells:
            for cb in cells:
                counts: dict[int, int] = {}
                for a in ca:
                    for b in cb:
                        z = table[a][b]
                        counts[z] = counts.get(z, 0) + 1
                touched: dict[int, set[int]] = {}
                for z, c in counts.items():
                    touched.setdefault(cell_of[z], set()).add(c)
                for key, mults in touched.items():
                    size = 1 if key == -1 else len(cells[key])
                    hit = sum(1 for z in counts if cell_of[z] == key)
                    if hit != size or len(mults) != 1:
                        ok = False
                if not ok:
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# corpus assembly


def build_corpus() -> Registry:
    reg = Registry()
    lib = group_library()

    print("seeding thin and trivial schemes ...")
    thin_found: dict[int, int] = {}
    for name, table in lib:
        if len(table) <= MAX_ORDER:
            if reg.add(sh.from_group(table).rel, name=f"thin-{name}") is not None:
                thin_found[len(table)] = thin_found.get(len(table), 0) + 1
    for order, expect in GROUPS_PER_ORDER.items():
        got = thin_found.get(order, 0)
        assert got == expect, f"order {order}: {got} thin schemes, library has {expect} groups"
    for n in range(2, MAX_ORDER + 1):
        reg.add(trivial_matrix(n))

    print("seeding orbital schemes of coset actions ...")
    for name, table in lib:
        n = len(table)
        for sub in all_subgroups(table):
            size = sub.bit_count()
            if n // size > MAX_ORDER:
                continue
            reg.add(orbital_matrix(table, sub))

    print("closing under fusion, opposite, wreath, tensor ...")
    frontier = reg.all_schemes()
    rounds = 0
    while frontier:
        rounds += 1
        fresh: list[AssociationScheme] = []

        def take(matrix: Matrix) -> None:
            got = reg.add(matrix)
            if got is not None:
                fresh.append(got)

        for s in frontier:
            take(opposite_matrix(s))
            for fused in fusion_matrices(s):
                take(fused)
        snapshot = reg.all_schemes()
        for s in frontier:
            for t in snapshot:
                if s.n_points * t.n_points <= MAX_ORDER:
                    take(wreath_matrix(s, t))
                    take(wreath_matrix(t, s))
                    take(tensor_matrix(s, t))
                    take(tensor_matrix(t, s))
        print(f"  round {rounds}: {len(fresh)} new schemes")
        frontier = fresh

    return reg


def write_catalogue(reg: Registry) -> None:
    cat = DATA / "catalogue"
    cat.mkdir(parents=True, exist_ok=True)
    for order in range(1, MAX_ORDER + 1):
        schemes = sorted(
            reg.by_order.get(order, []),
            key=lambda s: (s.rank, sorted(s.valencies), s.rel),
        )
        lines = [f"# association schemes of order {order}, concatenated row-major"]
        for s in schemes:
            lines.append("")
            for row in s.rel:
                lines.append(" ".join(str(v) for v in row))
        (cat / f"order{order:02d}.txt").write_text("\n".join(lines) + "\n", "utf-8")
        pub = PUBLISHED.get(order)
        marker = "matches" if pub == len(schemes) else "DIFFERS FROM"
        print(f"order {order:2d}: {len(schemes):3d} schemes  ({marker} published count {pub})")


def order28_matrices() -> list[Matrix]:
    c4 = sh.from_group(sh.cyclic(4))
    c7 = sh.from_group(sh.cyclic(7))
    return [
        sh.from_group(sh.cyclic(28)).rel,
        sh.from_group(sh.dihedral(14)).rel,
        wreath_matrix(c7, c4),
        wreath_matrix(c4, c7),
    ]


def write_order28() -> None:
    cat = DATA / "catalogue"
    cat.mkdir(parents=True, exist_ok=True)
    lines = ["# association schemes of order 28 (partial bundle)"]
    for m in order28_matrices():
        sh.validate_scheme(m)
        lines.append("")
        for row in m:
            lines.append(" ".join(str(v) for v in row))
    (cat / "order28.txt").write_text("\n".join(lines) + "\n", "utf-8")
    print("order 28: 4 schemes (partial bundle)")


def write_named_schemes() -> None:
    schemes_dir = DATA / "schemes"
    schemes_dir.mkdir(parents=True, exist_ok=True)

    def put(name: str, matrix: Matrix) -> None:
        s = sh.validate_scheme(matrix, name=name)
        (schemes_dir / f"{name}.scm").write_text(sh.render_scheme(s), "utf-8")

    pent = tuple(
        tuple(min((y - x) % 5, (x - y) % 5) for y in range(5)) for x in range(5)
    )
    put("pentagon", pent)

    pairs = list(itertools.combinations(range(5), 2))
    pet = tuple(
        tuple(
            0 if i == j else (1 if set(pairs[i]) & set(pairs[j]) else 2)
            for j in range(len(pairs))
        )
        for i in range(len(pairs))
    )
    put("petersen", pet)

    put("c6_thin", sh.from_group(sh.cyclic(6)).rel)

    c4 = sh.from_group(sh.cyclic(4))
    c7 = sh.from_group(sh.cyclic(7))
    put("hm176_28", wreath_matrix(c4, c7))


def write_groups() -> None:
    groups_dir = DATA / "groups"
    groups_dir.mkdir(parents=True, exist_ok=True)

    def put(name: str, table: Table) -> None:
        gf = sh.GroupFile(name, len(table), table)
        (groups_dir / f"{name}.grp").write_text(sh.render_group(gf), "utf-8")

    for n in range(1, 25):
        put(f"c{n:02d}", sh.cyclic(n))
    for n in range(3, 13):
        put(f"d{n:02d}", sh.dihedral(n))
    put("s3", sh.symmetric(3))
    put("a4", sh.alternating(4))
    put("s4", sh.symmetric(4))
    put("q8", sh.quaternion())


def run_oracle_checks() -> None:
    print("oracle: translation-scheme counts for groups of order <= 6 ...")
    for name, table in group_library():
        n = len(table)
        if not 2 <= n <= 6:
            continue
        want = sring_count_oracle(table)
        thin = sh.from_group(table)
        via_fusion = 1 + len(fusion_matrices(thin))
        assert via_fusion == want, (
            f"{name}: fusion route finds {via_fusion} translation schemes, "
            f"oracle counts {want}"
        )
        print(f"  {name}: {want} translation schemes, both routes agree")


def main() -> int:
    run_oracle_checks()
    reg = build_corpus()
    write_catalogue(reg)
    write_order28()
    write_named_schemes()
    write_groups()
    total = sum(len(v) for v in reg.by_order.values())
    print(f"total bundled schemes of order <= {MAX_ORDER}: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
