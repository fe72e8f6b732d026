"""Brute-force oracles.

These deliberately recompute results of the fast algorithms by scanning
whole power sets or whole closed-subset lattices.  They exist so tests
can cross-check the clever code against something too dumb to be wrong.
Lattice walks for solvability, the theta core and the pi-core, which
the library reads off the thin residue instead, live here as well, and
so does the subquotient built by way of a validated restriction copy,
which the library reads straight off the parent table.  The Hall filter
over every closed subset, which the library runs over the closed
pi-subsets alone, is kept here too, and so is the extension route that
multiplied a seed by the pi-core before looking for a Hall subset
containing it, which the library answers from the lifted Hall family
alone.  So are the
product and star kernels as they were written inline, one low bit
m & -m at a time, before the library read each mask's members off the
tables of bits_of.  The normality tests as they were
spelled before the library read them off one conjugation kernel and one
normalizer kernel (two mul_masks products per element, and a chain
search that tests normality pair by pair) are kept here too, and so is
the closed subset walk by cyclic extension that the library replaced
with Close-by-One, as the reference the new walk must match mask for
mask.  On the group side the references read the Cayley index table,
which the library reads only to validate it, and close subgroups with
generated_subgroup, an index-table kernel the library does not share:
the derived series from the commutators of all pairs, and the Hall
subgroups built by restarting the greedy join after each success and
conjugated by every group element, are the references for the
library's generator commutators and coset transversal; the subgroup
enumeration by one added generator at a time is the reference for
all_subgroups, and the subgroup conjugator scan over every element is
the reference for the one conjugator search the library runs on a
group as a thin hypergroup.  Each step of a solvable chain is counted
by its double cosets, as the library's chain check counts it.
"""
from __future__ import annotations

from collections.abc import Callable
from functools import reduce
from operator import or_

from schemehall.arith import is_pi_number, is_prime, pi_part, validate_pi
from schemehall.errors import (
    EmptyInputError,
    InternalInconsistencyError,
    NotClosedError,
    NotSubsetError,
)
from schemehall.groups import Table, group_inverse
from schemehall.hall import HallCertificate, _context
from schemehall.hypergroup import (
    ClosedSubset,
    ElementSubset,
    Hypergroup,
    _as_closed,
    _double_cosets,
    bits_of,
    enumerate_closed_subsets,
    is_strongly_normal,
    is_subnormal,
    mask_of,
    validate_hypergroup,
)
from schemehall.quotient import QuotientHypergroup, quotient
from schemehall.scheme import pi_predicates

__all__ = [
    "mul_masks_low_bit",
    "star_mask_low_bit",
    "normalizes_mul_masks",
    "conjugate_mul_masks",
    "subnormal_chain_search",
    "all_closed_subsets_scan",
    "closure_scan",
    "closed_subsets_cyclic_extension",
    "solvable_chain_scan",
    "solvable_chain_dfs",
    "theta_core_lattice",
    "o_pi_lattice",
    "hall_filter_lattice",
    "extend_via_core_product",
    "restriction_copy",
    "subquotient_of_copy",
    "subquotient_over_parent",
    "generated_subgroup",
    "all_subgroups_scan",
    "derived_series_all_pairs",
    "hall_subgroups_full_orbit",
]

SCAN_CAP = 16


def mul_masks_low_bit(hg: Hypergroup, left: int, right: int) -> int:
    """Hypergroup.mul_masks with both masks walked one low bit at a time."""
    rights = []
    while right:
        low = right & -right
        rights.append(low.bit_length() - 1)
        right ^= low
    table = hg.table
    out = 0
    while left:
        low = left & -left
        row = table[low.bit_length() - 1]
        for b in rights:
            out |= row[b]
        left ^= low
    return out


def star_mask_low_bit(hg: Hypergroup, mask: int) -> int:
    """Hypergroup.star_mask with the mask walked one low bit at a time."""
    inv = hg.inverse
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << inv[low.bit_length() - 1]
        mask ^= low
    return out


def normalizes_mul_masks(d: ElementSubset, e: ElementSubset) -> bool:
    """normalizes: E x inside x E for each x in D, two products per x."""
    d._check(e)
    hg = d.parent
    for x in bits_of(d.bits):
        if hg.mul_masks(e.bits, 1 << x) & ~hg.mul_masks(1 << x, e.bits):
            return False
    return True


def conjugate_mul_masks(scheme, subset: ElementSubset, s: int) -> ElementSubset:
    """conjugate_subset: s^ T s as the product (s^ T) s."""
    hg = scheme.hypergroup
    mask = hg.mul_masks(hg.mul_masks(1 << hg.inverse[s], subset.bits), 1 << s)
    return ElementSubset(hg, mask)


def subnormal_chain_search(f: ElementSubset, g: ElementSubset) -> bool:
    """is_subnormal: breadth first from F over the closed subsets inside
    G, stepping from C to D when C lies in D and D normalizes C, tested
    by normalizes_mul_masks.  Every link of a chain is closed, so a
    subset F other than G reaches G only when F is closed."""
    f._check(g)
    if not f.issubset(g):
        return False
    if f.bits == g.bits:
        return True
    hg = f.parent
    if not hg.is_closed_mask(f.bits):
        return False
    inside = [d for d in enumerate_closed_subsets(hg) if d.issubset(g)]
    reached = {f.bits}
    frontier = [f]
    while frontier:
        step = []
        for c in frontier:
            for d in inside:
                if d.bits not in reached and c.issubset(d) and normalizes_mul_masks(d, c):
                    reached.add(d.bits)
                    step.append(d)
        frontier = step
    return g.bits in reached


def all_closed_subsets_scan(hg: Hypergroup) -> tuple[ClosedSubset, ...]:
    """Every closed subset, found by testing all 2^k element subsets."""
    if hg.size > SCAN_CAP:
        raise ValueError(f"power set scan capped at order {SCAN_CAP}, got {hg.size}")
    out = []
    for mask in range(1, 1 << hg.size):
        if mask & 1 and hg.is_closed_mask(mask):
            out.append(ClosedSubset(hg, mask))
    out.sort(key=ElementSubset.sort_key)
    return tuple(out)


def closure_scan(subset: ElementSubset) -> ClosedSubset:
    """Smallest closed superset, as an intersection over the full scan."""
    if subset.bits == 0:
        raise EmptyInputError("cannot close the empty set")
    hg = subset.parent
    best = None
    for c in all_closed_subsets_scan(hg):
        if subset.bits & ~c.bits:
            continue
        if best is None or c.bits & ~best:
            if best is None:
                best = c.bits
            else:
                best &= c.bits
    if best is None or not hg.is_closed_mask(best):
        raise InternalInconsistencyError("power-set scan found no closed superset")
    return ClosedSubset(hg, best)


def closed_subsets_cyclic_extension(
    hg: Hypergroup, keep: Callable[[int], bool] | None
) -> tuple[ClosedSubset, ...]:
    """The closed subset walk by cyclic extension, keep-filtered as the
    library's walk is: a worklist seeded with the singleton closures
    joins each closed subset found with every singleton closure not
    inside it, closing its generator mask plus one representative, and
    spots the subsets it has reached with a found dict and a dropped set.
    """
    inv = hg.inverse
    # s and s^ have the same closure; one representative per closure
    singles: dict[int, int] = {}
    for s in range(1, hg.size):
        if inv[s] >= s:
            singles.setdefault(hg.closure_mask(1 << s), s)
    within = None
    if keep is not None:
        if not keep(1):
            return ()
        singles = {c: s for c, s in singles.items() if keep(c)}
        within = reduce(or_, singles, 1)
    found: dict[int, int] = {1: 0}
    for c, s in singles.items():
        found.setdefault(c, 1 << s)
    dropped: set[int] = set()
    work = list(found)
    while work:
        cur = work.pop()
        gens = found[cur]
        for c, s in singles.items():
            if c & ~cur == 0:
                continue
            # the union is the join when it is already known closed
            union = cur | c
            if union not in found and union not in dropped:
                ext = gens | 1 << s
                joined = hg.closure_mask(ext, 0 if within is None else ~within)
                if within is not None and joined & ~within:
                    joined = 0  # the closing left within
                if joined in found:
                    continue  # keep accepted it when it was found
                if joined == 0 or keep is not None and not keep(joined):
                    dropped.add(union)
                else:
                    found[joined] = ext
                    work.append(joined)
    return tuple(
        sorted(
            (_as_closed(hg, m) for m in found),
            key=ElementSubset.sort_key,
        )
    )


def solvable_chain_scan(hg: Hypergroup) -> list[int] | None:
    """Solvable chain search that branches over all closed supersets.

    Returns the chain as a list of masks from {0} to the full set, or
    None.  Unlike the production search this one does not restrict to
    minimal supersets, so it double-checks that the restriction loses
    nothing.
    """
    subs = enumerate_closed_subsets(hg)
    full = hg.full_mask

    def extend(chain: list[int]) -> list[int] | None:
        cur = chain[-1]
        if cur == full:
            return chain
        for nxt in subs:
            if nxt.bits == cur or nxt.bits & ~full or cur & ~nxt.bits:
                continue
            f = ClosedSubset(hg, cur)
            g = ClosedSubset(hg, nxt.bits)
            if not is_strongly_normal(f, g):
                continue
            if not is_prime(len(_double_cosets(hg, cur, nxt.bits))):
                continue
            got = extend(chain + [nxt.bits])
            if got is not None:
                return got
        return None

    return extend([1])


def _covers(hg: Hypergroup, cur: int) -> list[ClosedSubset]:
    """Minimal closed subsets strictly above `cur` in the lattice."""
    ups = [g for g in enumerate_closed_subsets(hg) if cur & ~g.bits == 0 and g.bits != cur]
    return [g for g in ups if not any(k.bits != g.bits and k.bits & ~g.bits == 0 for k in ups)]


def solvable_chain_dfs(hg: Hypergroup) -> list[int] | None:
    """The cover search: depth first over lattice covers in enumeration
    order, memoizing subsets that cannot reach the top.  A valid step
    F < G has a quotient of prime order, which has no closed subsets
    but its two ends, so G covers F and the search loses nothing.
    Returns the chain's masks from {0} to the full set, or None."""
    full = hg.full_mask
    dead: set[int] = set()

    def extend(chain: list[int]) -> list[int] | None:
        cur = chain[-1]
        if cur == full:
            return chain
        if cur in dead:
            return None
        f = ClosedSubset(hg, cur)
        for g in _covers(hg, cur):
            if not is_strongly_normal(f, g):
                continue
            order = len(_double_cosets(hg, cur, g.bits))
            if not is_prime(order):
                raise InternalInconsistencyError(
                    f"strongly normal cover step has {order} double cosets, not a prime"
                )
            got = extend(chain + [g.bits])
            if got is not None:
                return got
        dead.add(cur)
        return None

    return extend([1])


def theta_core_lattice(hg: Hypergroup) -> ClosedSubset:
    """Intersection of all strongly normal closed subsets."""
    universe = hg.universe()
    acc = hg.full_mask
    for c in enumerate_closed_subsets(hg):
        if is_strongly_normal(c, universe):
            acc &= c.bits
    return ClosedSubset(hg, acc)


def o_pi_lattice(scheme, ps: frozenset[int]) -> int:
    """Mask of the largest subnormal closed subset whose valency is a
    pi-number; it must contain every other one."""
    universe = scheme.hypergroup.universe()
    found = [
        t for t in scheme.closed_subsets()
        if is_pi_number(t.valency, ps) and is_subnormal(t, universe)
    ]
    core = max(found, key=lambda t: t.valency)
    if any(t.bits & ~core.bits for t in found):
        raise InternalInconsistencyError("the largest subnormal pi-subset misses another one")
    return core.bits


def hall_filter_lattice(scheme, pi) -> tuple:
    """all_hall_subsets as a filter over the whole closed-subset
    lattice: every closed subset passing the Hall predicate, in
    closed_subsets order.  Caches the lattice on the scheme."""
    return tuple(t for t in scheme.closed_subsets() if pi_predicates(scheme, t, pi).is_hall_pi_subset)


def extend_via_core_product(scheme, t, pi) -> HallCertificate:
    """extend_to_hall by way of the product of the pi-core with t: the
    product must be closed, and the certificate is that of the first
    lifted Hall subset containing it, in the order of the scheme's Hall
    context."""
    ps = validate_pi(pi)
    ctx = _context(scheme, ps)
    hg = scheme.hypergroup
    grown = hg.mul_masks(ctx.core.bits, t.bits)
    if not hg.is_closed_mask(grown):
        raise InternalInconsistencyError("product of the pi-core with a closed subset must be closed")
    for i, h in enumerate(ctx.lifted):
        if grown & ~h.bits == 0:
            return ctx.certificate(i, ps)
    raise InternalInconsistencyError("no lifted Hall subset contains the product")


def restriction_copy(hg: Hypergroup, subset: ElementSubset) -> tuple[Hypergroup, tuple[int, ...]]:
    """The closed subset as a hypergroup of its own.

    Returns the re-indexed hypergroup together with the member tuple, so
    new index i corresponds to old element members[i].
    """
    subset._check(hg.universe())
    if not hg.is_closed_mask(subset.bits):
        raise NotClosedError("can only restrict to a closed subset")
    members = subset.members()
    pos = {old: new for new, old in enumerate(members)}
    raw = [
        [mask_of(pos[x] for x in bits_of(hg.table[a][b])) for b in members]
        for a in members
    ]
    sub = validate_hypergroup(raw, name=f"{hg.name}|{members}")
    return sub, members


def subquotient_of_copy(hg: Hypergroup, outer: ElementSubset, inner: ElementSubset) -> QuotientHypergroup:
    """outer // inner, both closed subsets of hg with inner inside outer,
    as the quotient of the restriction copy; its cosets are masks over
    that copy, element i standing for outer.members()[i]."""
    outer._check(inner)
    if not inner.issubset(outer):
        raise NotSubsetError("inner subset must lie inside the outer one")
    sub, members = restriction_copy(hg, outer)
    pos = {old: new for new, old in enumerate(members)}
    inner_in_sub = sub.subset(mask_of(pos[x] for x in inner.members()))
    return quotient(sub, inner_in_sub)


def subquotient_over_parent(hg: Hypergroup, outer: ElementSubset, inner: ElementSubset) -> tuple:
    """(table, inverse, cosets, coset_of) of subquotient_of_copy, its
    cosets mapped through the members of outer back to masks over hg and
    coset_of read off them, -1 outside outer."""
    q = subquotient_of_copy(hg, outer, inner)
    members = outer.members()
    cosets = tuple(mask_of(members[x] for x in bits_of(c)) for c in q.cosets)
    coset_of = [-1] * hg.size
    for i, c in enumerate(cosets):
        for x in bits_of(c):
            coset_of[x] = i
    return q.table, q.inverse, cosets, tuple(coset_of)


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


def all_subgroups_scan(table: Table) -> tuple[int, ...]:
    """Every subgroup, by closing one added generator at a time on the
    index table, each join closed by generated_subgroup; exhaustive as
    any subgroup is reached by adding its elements one by one.  The
    reference for groups.all_subgroups; the table is not validated."""
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


def derived_series_all_pairs(table: Table) -> list[int]:
    """groups._derived_series with each step closed from the commutators
    [x, y] of every pair x, y of the step before."""
    inv = group_inverse(table)
    series = [(1 << len(table)) - 1]
    while series[-1] != 1:
        members = bits_of(series[-1])
        commutators = 0
        for x in members:
            for y in members:
                commutators |= 1 << table[table[inv[x]][inv[y]]][table[x][y]]
        nxt = generated_subgroup(table, commutators)
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def hall_subgroups_full_orbit(table: Table, ps: frozenset[int]) -> tuple[int, ...]:
    """hall._hall_subgroups with the greedy join restarted at element 1
    after each success and the orbit taken under conjugation by every
    element g, as g^-1 H g."""
    n = len(table)
    target = pi_part(n, ps)
    hall = 1
    while hall.bit_count() != target:
        for g in range(1, n):
            if not hall >> g & 1:
                ext = generated_subgroup(table, hall | 1 << g)
                if is_pi_number(ext.bit_count(), ps):
                    hall = ext
                    break
        else:
            raise InternalInconsistencyError("the greedy join stalled")
    inv = group_inverse(table)
    orbit = {mask_of(table[table[inv[g]][x]][g] for x in bits_of(hall)) for g in range(n)}
    return tuple(sorted(orbit, key=bits_of))


def subgroup_conjugator_scan(table: Table, sub_a: int, sub_b: int) -> int | None:
    """groups.find_subgroup_conjugator on the index table: the least g
    with g^-1 A g = B, each conjugate read as (g^-1 x) g off the rows."""
    inv = group_inverse(table)
    members = bits_of(sub_a)
    for g in range(len(table)):
        if mask_of(table[table[inv[g]][x]][g] for x in members) == sub_b:
            return g
    return None
