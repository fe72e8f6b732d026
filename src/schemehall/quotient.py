"""Quotients of hypergroups and the homomorphisms between them.

The quotient T // F, F inside T closed subsets of H, lives on the double
cosets F h F, h in T, as masks over H; one kernel reads it off H's table
for quotient (T = H) and subquotient, except
H // {0}, which is H itself with singleton cosets.  Coset i is
represented by the smallest element it contains, cosets are numbered in
order of their representatives, and the coset of the neutral element
(which is F itself) therefore always lands at index 0.

A homomorphism is its image tuple, checked by validate_homomorphism
with set images compared for equality.  The isomorphism statements for
closed subsets need no search: each is witnessed by its natural map,
which sends a coset to the image of any of its members, and which that
check accepts.
"""
from __future__ import annotations

from collections.abc import Sequence

from .errors import InternalInconsistencyError, NotClosedError, NotSubsetError
from .hypergroup import (
    ClosedSubset,
    ElementSubset,
    Hypergroup,
    _closed,
    _double_cosets,
    _prove,
    _share_table_caches,
    bits_of,
    mask_of,
)

__all__ = [
    "QuotientHypergroup",
    "quotient",
    "subquotient",
    "lift_closed",
    "project_closed",
    "HypergroupHomomorphism",
    "validate_homomorphism",
    "kernel",
]


class QuotientHypergroup(Hypergroup):
    """Hypergroup of double cosets, remembering where it came from.

    Inherits the full Hypergroup interface; `parent`, `modulus`,
    `cosets` (bitmasks over parent elements, indexed by coset, that
    partition the outer closed subset) and `coset_of` (parent element
    to coset index, -1 outside it) carry the projection data.
    """

    __slots__ = ("parent", "modulus", "cosets", "coset_of")

    def __init__(
        self,
        table: tuple[tuple[int, ...], ...],
        inverse: tuple[int, ...],
        parent: Hypergroup,
        modulus: ClosedSubset,
        cosets: tuple[int, ...],
        coset_of: tuple[int, ...],
        name: str = "",
        valencies: tuple[int, ...] | None = None,
    ):
        super().__init__(table, inverse, name=name, valencies=valencies)
        self.parent = parent
        self.modulus = modulus
        self.cosets = cosets
        self.coset_of = coset_of


def _coset_partition(
    hg: Hypergroup, outer: int, modulus: ElementSubset
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The cosets of outer // F, the double cosets F h F for h in the
    closed mask outer, and coset_of, each element's coset index, -1
    outside outer.  For F = {0} and outer = H the cosets are the
    singletons, with no double-coset work.  Callers check that modulus
    is a subset of hg, and closed: quotient and subquotient test it, a
    ClosedSubset is closed by its type, and the residue series' moduli
    are closure_mask results."""
    f = modulus.bits
    if f == 1 and outer == hg.full_mask:
        return tuple(1 << s for s in hg.elements), tuple(hg.elements)
    cosets = tuple(_double_cosets(hg, f, outer))
    coset_of = [-1] * hg.size
    for idx, coset in enumerate(cosets):
        for x in bits_of(coset):
            if coset_of[x] != -1:
                raise InternalInconsistencyError(
                    "double cosets failed to partition the element set"
                )
            coset_of[x] = idx
    return cosets, tuple(coset_of)


def _quotient(
    hg: Hypergroup,
    outer: int,
    modulus: ElementSubset,
    name: str,
    valencies: tuple[int, ...] | None = None,
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> QuotientHypergroup:
    """outer // F for a closed mask outer holding F, on the cosets
    _coset_partition gives, or on partition, its answer for these
    arguments when the caller holds it already, as quotient_scheme
    does, read off hg's own rows and columns.  The product of cosets
    with representatives a and b is the set of cosets meeting a F b,
    and the inverse of F r F is F r^ F; _prove checks H1-H3 on the
    QuotientHypergroup returned, which carries valencies, given by
    quotient_scheme alone.  H // {0} is H itself, its cosets
    the singletons: it shares hg's table, proved when hg was built, and
    it is given hg's generating set and attributes, which the table
    alone decides, so its derived series picks no set of its own.
    Callers check that modulus is a closed subset of hg, as
    _coset_partition needs."""
    cosets, coset_of = partition or _coset_partition(hg, outer, modulus)
    f = modulus.bits
    if f == 1 and outer == hg.full_mask:
        table, inverse = hg.table, hg.inverse
    else:
        rows = hg.table
        f_members = bits_of(f)
        reps = [(c & -c).bit_length() - 1 for c in cosets]
        raw: list[list[int]] = []
        for rep in reps:
            # (rep F) r is column r over the members of rep F, read off their rows
            rep_row = rows[rep]
            rep_f = 0
            for x in f_members:
                rep_f |= rep_row[x]
            rep_f_rows = [rows[y] for y in bits_of(rep_f)]
            row = []
            for r in reps:
                prod = 0
                for y_row in rep_f_rows:
                    prod |= y_row[r]
                m = 0
                while prod:  # one coset per step: the lowest member names it
                    c = coset_of[(prod & -prod).bit_length() - 1]
                    m |= 1 << c
                    prod &= ~cosets[c]
                row.append(m)
            raw.append(row)
        table = tuple(map(tuple, raw))
        inverse = tuple(coset_of[hg.inverse[r]] for r in reps)
    hq = QuotientHypergroup(
        table, inverse, hg, _closed(hg, f), cosets, coset_of, name, valencies
    )
    if table is hg.table:
        _share_table_caches(hg, hq)
    else:
        _prove(hq, table, inverse)
    return hq


def quotient(hg: Hypergroup, modulus: ElementSubset) -> QuotientHypergroup:
    """H // F for a closed subset F of H."""
    hg.universe()._check(modulus)
    if not hg.is_closed_mask(modulus.bits):
        raise NotClosedError("quotient modulus must be a closed subset")
    return _quotient(hg, hg.full_mask, modulus, f"{hg.name}//{modulus.members()}")


def subquotient(hg: Hypergroup, outer: ElementSubset, inner: ElementSubset) -> QuotientHypergroup:
    """outer // inner, both closed subsets of hg with inner inside outer;
    its parent is hg and its cosets partition outer."""
    hg.universe()._check(outer)
    hg.universe()._check(inner)
    if not inner.issubset(outer):
        raise NotSubsetError("inner subset must lie inside the outer one")
    if not hg.is_closed_mask(outer.bits):
        raise NotClosedError("can only restrict to a closed subset")
    if not hg.is_closed_mask(inner.bits):
        raise NotClosedError("quotient modulus must be a closed subset")
    return _quotient(hg, outer.bits, inner, f"{hg.name}|{outer.members()}//{inner.members()}")


def lift_closed(q: QuotientHypergroup, subset: ElementSubset) -> ClosedSubset:
    """Union of the cosets named by a closed subset of the quotient: the
    input is checked to be a closed subset of q, then _lift."""
    if not isinstance(q, QuotientHypergroup):
        raise TypeError(f"expected QuotientHypergroup, got {type(q).__name__}")
    q.universe()._check(subset)
    if not q.is_closed_mask(subset.bits):
        raise NotClosedError("can only lift a closed subset of the quotient")
    return _lift(q, subset.bits)


def _lift(q: QuotientHypergroup, bits: int) -> ClosedSubset:
    """The union of the cosets named by bits, which must be a closed mask
    of q, checked closed in q's parent.  Callers that built bits closed,
    such as the pi-core, lifted from the intersection of the Hall
    subgroups of q read off as a group, and the subgroups of a residue
    factor that solvable_chain lifts, skip lift_closed's input check.
    The Hall subsets themselves are summed without this check, as their
    equality with the Hall filter proves them closed."""
    m = sum(map(q.cosets.__getitem__, bits_of(bits)))  # the cosets are disjoint
    if not q.parent.is_closed_mask(m):
        raise InternalInconsistencyError("lift of a closed subset is not closed")
    return _closed(q.parent, m)


def project_closed(q: QuotientHypergroup, subset: ElementSubset) -> ClosedSubset:
    """Image in the quotient of a closed subset between F and the outer subset."""
    if not isinstance(q, QuotientHypergroup):
        raise TypeError(f"expected QuotientHypergroup, got {type(q).__name__}")
    q.parent.universe()._check(subset)
    if not q.parent.is_closed_mask(subset.bits):
        raise NotClosedError("can only project a closed subset")
    if q.modulus.bits & ~subset.bits:
        raise NotSubsetError("projection needs a subset containing the modulus")
    if subset.bits & ~sum(q.cosets):
        raise NotSubsetError("projection needs a subset inside the outer subset")
    m = mask_of(q.coset_of[x] for x in bits_of(subset.bits))
    if not q.is_closed_mask(m):
        raise InternalInconsistencyError("projection of a closed subset is not closed")
    return _closed(q, m)


# ---------------------------------------------------------------------------
# homomorphisms


class HypergroupHomomorphism:
    """A validated map phi with phi(ab) = phi(a) phi(b) as sets."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: Hypergroup, target: Hypergroup, mapping: tuple[int, ...]):
        self.source = source
        self.target = target
        self.mapping = mapping

    def image_mask(self, mask: int) -> int:
        return mask_of(self.mapping[s] for s in bits_of(mask))

    def __repr__(self) -> str:
        return f"<HypergroupHomomorphism {self.mapping}>"


def validate_homomorphism(
    source: Hypergroup,
    target: Hypergroup,
    mapping: Sequence[int],
) -> HypergroupHomomorphism:
    """Check the homomorphism law, with set images compared for equality."""
    if len(mapping) != source.size:
        raise ValueError("mapping length does not match the source order")
    for v in mapping:
        if type(v) is not int:  # bool is an int subclass
            raise ValueError(f"mapping value {v!r} is not an int")
        if not 0 <= v < target.size:
            raise ValueError(f"mapping value {v} outside the target")
    if mapping[0] != 0:
        raise ValueError("homomorphisms must send neutral to neutral")
    phi = HypergroupHomomorphism(source, target, tuple(mapping))
    for a in source.elements:
        for b in source.elements:
            lhs = phi.image_mask(source.table[a][b])
            rhs = target.table[mapping[a]][mapping[b]]
            if lhs != rhs:
                raise ValueError(
                    f"homomorphism law fails at ({a}, {b}): "
                    f"image {lhs:#x} versus product {rhs:#x}"
                )
    return phi


def kernel(phi: HypergroupHomomorphism) -> ClosedSubset:
    """Preimage of the neutral element, closed when phi is a homomorphism.
    A map built without validate_homomorphism may have a preimage that
    is not closed, which raises NotClosedError naming it."""
    m = mask_of(s for s in phi.source.elements if phi.mapping[s] == 0)
    if not phi.source.is_closed_mask(m):
        raise NotClosedError(
            f"preimage {list(bits_of(m))} of the neutral element is not closed, "
            "so the map is not a homomorphism: build it with validate_homomorphism"
        )
    return _closed(phi.source, m)
