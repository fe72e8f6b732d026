"""Finite hypergroups with set-valued multiplication.

Elements are the integers 0..size-1 and the neutral element always sits
at index 0 (validation re-indexes the input if necessary).  Subsets of
elements are bitmasks wrapped in ElementSubset; the wrapper remembers
which hypergroup it belongs to and refuses to mix subsets of different
parents.

The axioms checked by validate_hypergroup:

  H1  p(qr) = (pq)r for all elements p, q, r (products of sets taken
      elementwise and unioned),
  H2  there is a neutral element e with s*e = {s} for every s,
  H3  there is an inverse map s -> s^ such that whenever r lies in pq,
      q lies in p^r and p lies in r q^.

The inverse map, when it exists, is pinned down by H2/H3: t is the
inverse of s exactly when the neutral element lies in ts.  Validation
exploits that to locate the unique candidate and then checks H3 over
all triples.  When every product is a single element (a thin table,
such as a group or a quotient by a strongly normal closed subset), H1-H3
hold exactly when it is a group's table: groups.thin_hypergroup builds
it, and its validate_group is the proof.  Other tables, and any it
refuses, take the set-valued loops.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import reduce
from itertools import chain
from operator import itemgetter, or_

from .errors import (
    AssocViolationError,
    EmptyInputError,
    EmptyProductError,
    InternalInconsistencyError,
    NoInverseError,
    NotAGroupError,
    NoNeutralError,
    NotSubsetError,
    ParentMismatchError,
)

__all__ = [
    "Hypergroup",
    "ElementSubset",
    "ClosedSubset",
    "validate_hypergroup",
    "closure",
    "enumerate_closed_subsets",
    "normalizes",
    "is_normal_in",
    "is_strongly_normal",
    "is_subnormal",
    "theta_core",
    "is_thin",
    "double_cosets",
    "format_table",
]


def _chunk_table(k: int) -> tuple[tuple[int, ...], ...]:
    """t[b] lists the set bits of b << 8k, lowest first, built by doubling."""
    t: list[tuple[int, ...]] = [()]
    for i in range(8 * k, 8 * k + 8):
        t += [s + (i,) for s in t]  # the entries with bit i set
    return tuple(t)


# by chunk index, built as masks reach them (a racing build stores the same table)
_CHUNKS = {0: _chunk_table(0)}


def bits_of(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of mask, lowest first, read off _CHUNKS."""
    if mask < 256:
        return _CHUNKS[0][mask]
    out: tuple[int, ...] = ()
    k = 0
    while mask:
        if k not in _CHUNKS:
            _CHUNKS[k] = _chunk_table(k)
        out += _CHUNKS[k][mask & 255]
        mask >>= 8
        k += 1
    return out


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for s in elements:
        m |= 1 << s
    return m


class Hypergroup:
    """A finite hypergroup.

    table[a][b] is the bitmask of the product set ab, inverse[s] is the
    index of s^.  Instances are value objects but compare by identity;
    the identity is what ties an ElementSubset to its parent.  Build
    instances through validate_hypergroup, or thin_hypergroup for a group.
    The hypergroup of an association scheme carries the scheme's
    valencies, by relation; other hypergroups carry None.
    """

    __slots__ = (
        "size", "table", "inverse", "name", "valencies",
        "_closed", "_attrs", "_gens", "_residue",
    )

    def __init__(
        self,
        table: tuple[tuple[int, ...], ...],
        inverse: tuple[int, ...],
        name: str = "",
    ):
        self.size = len(table)
        self.table = table
        self.inverse = inverse
        self.name = name
        self.valencies: tuple[int, ...] | None = None
        self._closed: tuple[ClosedSubset, ...] | None = None
        # Close-by-One's attributes, and the whole hypergroup's _generators:
        # see _attributes, _generators
        self._attrs: tuple[tuple[int, int], ...] | None = None
        self._gens: int | None = None
        # residue-series factors, () when not solvable: see solvability._residue_series
        self._residue: tuple | None = None

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<Hypergroup{tag} of order {self.size}>"

    # -- element level ------------------------------------------------

    @property
    def elements(self) -> range:
        return range(self.size)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def valency_of_mask(self, mask: int) -> int:
        """The sum of the valencies of the elements of mask."""
        if self.valencies is None:
            raise ValueError(f"{self!r} carries no valencies: it is not a scheme's hypergroup")
        if mask >> self.size:
            raise self._out_of_range(mask)
        return sum(map(self.valencies.__getitem__, bits_of(mask)))

    def is_thin_element(self, s: int) -> bool:
        """An element h is thin when h^h = {0}; s is checked as subset([s]) checks it."""
        self._check_element(s)
        return self.table[self.inverse[s]][s] == 1

    def _check_element(self, s: object) -> None:
        """Raise ValueError unless s is an int in 0..size-1."""
        if type(s) is not int:  # bool is an int subclass
            raise ValueError(f"element {s!r} is not an int")
        if not 0 <= s < self.size:
            raise ValueError(f"element {s} is out of range for order {self.size}")

    # -- mask level (internal workhorses) -----------------------------

    # the product and star kernels, and closure_mask's rounds, read each
    # mask's members as one tuple that bits_of takes from its chunk tables;
    # a mask is in range when it has no bit at or past size, so a negative
    # one, whose sign extends, is out of range too

    def _out_of_range(self, *masks: int) -> ValueError:
        """The error naming the first of masks that is out of range."""
        mask = next(m for m in masks if m >> self.size)
        return ValueError(f"mask {mask:#x} is out of range for order {self.size}")

    def mul_masks(self, left: int, right: int) -> int:
        if (left | right) >> self.size:
            raise self._out_of_range(left, right)
        table = self.table
        rights = bits_of(right)
        out = 0
        for a in bits_of(left):
            row = table[a]
            for b in rights:
                out |= row[b]
        return out

    def star_mask(self, mask: int) -> int:
        if mask >> self.size:
            raise self._out_of_range(mask)
        inv = self.inverse
        out = 0
        for s in bits_of(mask):
            out |= 1 << inv[s]
        return out

    def closure_mask(self, mask: int, stop: int = 0) -> int:
        """Smallest closed subset containing mask, semi-naively, or the
        part of it found by the time the closing meets stop.

        With gens = mask, its star and the neutral element, the closure
        is the union of the powers of gens (H1, and star reverses
        products).  Each round multiplies only the elements new in the
        last round by gens; the neutral is left out of the right factor
        because it is a right identity.

        The rounds only add elements, so once gens or a round's new
        elements meet stop, the closure meets stop too, and the elements
        found so far are returned without finishing it.  So the result
        is the closure when that misses stop (always, with stop = 0);
        otherwise it meets stop and lies inside the closure.
        """
        if mask == 0:
            raise EmptyInputError("cannot close the empty set")
        table = self.table
        gens = mask | self.star_mask(mask) | 1  # star_mask checks mask in range
        steps = bits_of(gens & ~1)
        cur = frontier = gens
        while frontier and not frontier & stop:
            new = 0
            for a in bits_of(frontier):
                row = table[a]
                for b in steps:
                    new |= row[b]
            frontier = new & ~cur
            cur |= frontier
        return cur

    def is_closed_mask(self, mask: int) -> bool:
        if mask == 0:
            return False
        st = self.star_mask(mask)  # checks mask in range
        prod = self.mul_masks(st, mask)
        by_def = prod | mask == mask
        # the three-way characterization must agree with the definition;
        # once mask^ == mask, the product mask^ mask is mask mask
        three = mask & 1 != 0 and st == mask and prod == mask
        if by_def != three:
            raise InternalInconsistencyError(f"closedness criteria disagree on {mask:#x}")
        return by_def

    # -- subset constructors -------------------------------------------

    def subset(self, elements: Iterable[int] | int) -> "ElementSubset":
        if isinstance(elements, int):
            mask = elements
            if type(mask) is not int:  # bool is an int subclass
                raise ValueError(f"mask {mask!r} is not an int")
            if mask >> self.size:
                raise self._out_of_range(mask)
        else:
            mask = 0
            for s in elements:
                self._check_element(s)
                mask |= 1 << s
        return ElementSubset(self, mask)

    def universe(self) -> "ClosedSubset":
        return ClosedSubset(self, self.full_mask)

    def neutral_subset(self) -> "ClosedSubset":
        return ClosedSubset(self, 1)


class ElementSubset:
    """Subset of a hypergroup's elements, stored as a bitmask.

    Algebraic operations require both operands to come from the same
    parent object; mixing parents raises ParentMismatchError.  Equality
    against a subset of a different parent is simply False.
    """

    __slots__ = ("parent", "bits")

    def __init__(self, parent: Hypergroup, bits: int):
        self.parent = parent
        self.bits = bits

    def members(self) -> tuple[int, ...]:
        return bits_of(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElementSubset):
            return NotImplemented
        return self.parent is other.parent and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((id(self.parent), self.bits))

    def __repr__(self) -> str:
        inner = ", ".join(str(s) for s in self.members())
        return "{" + inner + "}"

    def _check(self, other: "ElementSubset") -> None:
        if not isinstance(other, ElementSubset):
            raise TypeError(f"expected ElementSubset, got {type(other).__name__}")
        if self.parent is not other.parent:
            raise ParentMismatchError("subsets belong to different hypergroups")

    def __or__(self, other: "ElementSubset") -> "ElementSubset":
        self._check(other)
        return ElementSubset(self.parent, self.bits | other.bits)

    def __mul__(self, other: "ElementSubset") -> "ElementSubset":
        self._check(other)
        return ElementSubset(self.parent, self.parent.mul_masks(self.bits, other.bits))

    def issubset(self, other: "ElementSubset") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def star(self) -> "ElementSubset":
        return ElementSubset(self.parent, self.parent.star_mask(self.bits))

    def is_closed(self) -> bool:
        return self.parent.is_closed_mask(self.bits)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Deterministic ordering: by size, then by member tuple."""
        return (self.bits.bit_count(), self.members())


class ClosedSubset(ElementSubset):
    """An ElementSubset that has been checked to be closed.  On a scheme's
    hypergroup its valency sums its relations' valencies: given by a caller
    that has summed them, else summed on first read and kept."""

    __slots__ = ("_valency",)

    def __init__(self, parent: Hypergroup, bits: int, valency: int | None = None):
        self.parent = parent
        self.bits = bits
        self._valency = valency

    @property
    def valency(self) -> int:
        v = self._valency
        if v is None:
            v = self._valency = self.parent.valency_of_mask(self.bits)
        return v

    @valency.setter
    def valency(self, v: int) -> None:
        self._valency = v


def _as_closed(parent: Hypergroup, bits: int) -> ClosedSubset:
    if not parent.is_closed_mask(bits):
        raise InternalInconsistencyError(f"subset {bits:#x} is not closed")
    return ClosedSubset(parent, bits)


# ---------------------------------------------------------------------------
# validation


def validate_hypergroup(
    table: Sequence[Sequence[Iterable[int] | int]],
    name: str = "",
) -> Hypergroup:
    """Check H1-H3 on a raw product table and build a Hypergroup.

    table[a][b] may be any iterable of element indices, or an int
    bitmask.  On success the neutral element is re-indexed to 0.  On
    failure the first violated axiom is reported with a witness:
    EmptyProductError, NoNeutralError, NoInverseError or
    AssocViolationError.
    """
    k = len(table)
    if k == 0:
        raise NoNeutralError("empty table has no neutral element")
    masks: list[list[int]] = []
    for a, row in enumerate(table):
        if len(row) != k:
            raise ValueError(f"row {a} has length {len(row)}, expected {k}")
        mrow = []
        for b, cell in enumerate(row):
            if type(cell) is int:  # bool is an int subclass
                m = cell
                if m < 0 or m >> k:
                    raise ValueError(f"cell ({a}, {b}) mask out of range")
            else:
                try:
                    members = iter(cell)
                except TypeError:
                    raise ValueError(
                        f"cell ({a}, {b}) is {cell!r}, neither an int mask "
                        f"nor an iterable of elements"
                    ) from None
                m = 0
                for s in members:
                    if type(s) is not int or not 0 <= s < k:
                        raise ValueError(f"cell ({a}, {b}) contains {s!r}, outside 0..{k - 1}")
                    m |= 1 << s
            if m == 0:
                raise EmptyProductError(a, b)
            mrow.append(m)
        masks.append(mrow)

    # H2: a neutral element e with se = {s} for every s.
    candidates = [
        e for e in range(k) if all(masks[s][e] == 1 << s for s in range(k))
    ]
    if not candidates:
        raise NoNeutralError("no element acts as a right neutral")
    if len(candidates) > 1:
        raise NoNeutralError(f"multiple right neutral elements: {candidates}")
    e = candidates[0]

    # H3, existence half: the inverse of s is the unique t with e in ts.
    inv = [-1] * k
    for s in range(k):
        ts = [t for t in range(k) if masks[t][s] >> e & 1]
        if len(ts) != 1:
            raise NoInverseError(
                f"element {s} has {len(ts)} inverse candidates {ts}, expected 1"
            )
        inv[s] = ts[0]

    rows, hinv = masks, inv
    if e != 0:
        # swap labels 0 and e so the neutral element lands at index 0
        perm = list(range(k))
        perm[0], perm[e] = e, 0

        rows = [[0] * k for _ in range(k)]
        for a in range(k):
            for b in range(k):
                rows[perm[a]][perm[b]] = mask_of(perm[s] for s in bits_of(masks[a][b]))
        hinv = [0] * k
        for s in range(k):
            hinv[perm[s]] = perm[inv[s]]

    t = _thin_index_table(rows)
    if t is not None:  # H1-H3 hold exactly when t is a group's table
        from .groups import thin_hypergroup  # groups builds on this module

        try:
            return thin_hypergroup(t, name=name)
        except NotAGroupError:
            pass
    # the literal loops name the first witness, in the input's labels
    _h3_literal(masks, inv)
    witness = _h1_witness(masks)
    if witness is not None:
        raise AssocViolationError(*witness)
    if t is not None:
        raise InternalInconsistencyError("validate_group refused a table that passed H1-H3")
    return Hypergroup(tuple(tuple(row) for row in rows), tuple(hinv), name=name)


def _thin_index_table(masks: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...] | None:
    """Nonempty mask cells read as element indices, or None if one holds several."""
    k = len(masks)
    if sum(map(int.bit_count, chain.from_iterable(masks))) != k * k:
        return None
    pos = {1 << s: s for s in range(k)}
    return tuple(tuple(map(pos.__getitem__, row)) for row in masks)


def _h3_literal(masks: Sequence[Sequence[int]], inv: Sequence[int]) -> None:
    """H3 over all triples with the inverse map inv; raises on the first witness."""
    k = len(masks)
    for p in range(k):
        ip = inv[p]
        for q in range(k):
            iq = inv[q]
            pq = masks[p][q]
            for r in bits_of(pq):
                if not masks[ip][r] >> q & 1:
                    raise NoInverseError(
                        f"H3 fails: {r} in {p}*{q} but {q} not in inv({p})*{r}"
                    )
                if not masks[r][iq] >> p & 1:
                    raise NoInverseError(
                        f"H3 fails: {r} in {p}*{q} but {p} not in {r}*inv({q})"
                    )


def _associativity_witness(
    t: Sequence[tuple[int, ...]], gens: Iterable[int]
) -> tuple[int, int, int] | None:
    """The first (a, b, c) in index order with (ab)c != a(bc), or None.

    t is a table of element indices in range, with tuple rows.  Light's
    test (Clifford and Preston, The Algebraic Theory of Semigroups,
    vol. 1, 1961): the b with (ab)c = a(bc) for every a and c are closed
    under products, since then (a(bb'))c = ((ab)b')c = (ab)(b'c) =
    a(b(b'c)) = a((bb')c).  So it is enough to test b over gens: row ab
    against row b read through row a, which itemgetter(*row b) reads in
    one call, for every a.  Only when that test fails does the scan over
    every b name the first witness.  On a thin table this is the first
    (p, q, r) of _h1_witness.

    Precondition: t is Latin, with identity 0 and two-sided inverses,
    and the products of gens, their stars and 0 reach every element, as
    closure_mask finds for _generators of t's thin hypergroup.  The b
    that pass then hold every element, with no star or 0 tested: 0
    passes, and so does each g^, as right multiplication by g permutes
    the elements, so g, gg, (gg)g, ..., each a product of g's, returns
    to g through 0, and the element just before 0 is g^.  With gens =
    range(len(t)) every b is tested, on any table.
    """
    n = len(t)
    if n == 1:
        return None  # t is ((0,),); itemgetter of one index returns a bare value
    for b in gens:
        read = itemgetter(*t[b])
        if any(t[ta[b]] != read(ta) for ta in t):
            break
    else:
        return None
    reads = [itemgetter(*row) for row in t]
    for a in range(n):
        ta = t[a]
        for b in range(n):
            lhs = t[ta[b]]
            rhs = reads[b](ta)
            if lhs != rhs:
                return a, b, next(c for c in range(n) if lhs[c] != rhs[c])
    raise InternalInconsistencyError("Light's test failed but the full scan passed")


def _h1_witness(masks: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """The first (p, q, r) in index order with p(qr) != (pq)r, or None.

    Checks one row of r at a time: p(qr) is p times the cell qr,
    memoized per p over the distinct cells, and (pq)r is the union of
    the rows y in pq, memoized per distinct cell pq.  Cells must be
    nonempty.
    """
    k = len(masks)
    cells = {c: bits_of(c) for row in masks for c in row}
    row_unions: dict[int, list[int]] = {}
    for c, ys in cells.items():
        acc = list(masks[ys[0]])
        for y in ys[1:]:
            acc = [u | v for u, v in zip(acc, masks[y])]
        row_unions[c] = acc
    for p in range(k):
        row_p = masks[p]
        left = {}
        for c, xs in cells.items():
            m = 0
            for x in xs:
                m |= row_p[x]
            left[c] = m
        for q in range(k):
            lhs = [left[c] for c in masks[q]]
            rhs = row_unions[row_p[q]]
            if lhs != rhs:
                return p, q, next(r for r in range(k) if lhs[r] != rhs[r])
    return None


# ---------------------------------------------------------------------------
# subset operations


def closure(subset: ElementSubset) -> ClosedSubset:
    """Smallest closed subset containing the given nonempty subset."""
    return _as_closed(subset.parent, subset.parent.closure_mask(subset.bits))


def enumerate_closed_subsets(hg: Hypergroup) -> tuple[ClosedSubset, ...]:
    """All closed subsets, sorted by size then member tuple.

    Close-by-One (Ganter, "Two basic algorithms in concept analysis",
    1984) over closure_mask, one attribute per pair {s, s^}, the
    smaller: depth first, a closed C reached by adding attribute y is
    extended by each attribute j > y not in C, closing C's generator
    mask plus j, and the closure D is kept only when it adds nothing
    below j, so each closed subset is reached once, with no record of
    those reached.  The elements below j that C lacks are one stop
    mask: the closure stops at the first round that meets it, as
    In-Close's canonicity test does (Andrews, ICCS 2009).  By the FCbO
    rule (Outrata and Vychodil, Information Sciences 185, 2012) j is
    skipped without closing when a closure of j that failed the test
    above C, partial or whole, or j's singleton closure, meets the stop
    mask.
    The result is cached on the hypergroup.
    """
    if hg._closed is None:
        hg._closed = _enumerate_closed(hg, None)
    return hg._closed


def _attributes(hg: Hypergroup) -> tuple[tuple[int, int], ...]:
    """Close-by-One's attributes (s, closure of {s}), one per pair {s, s^},
    the smaller, as s and s^ have the same closure; built once per
    hypergroup and shared by the full walk and every keep walk."""
    if hg._attrs is None:
        inv = hg.inverse
        hg._attrs = tuple((s, hg.closure_mask(1 << s)) for s in range(1, hg.size) if inv[s] >= s)
    return hg._attrs


def _generators(hg: Hypergroup, mask: int) -> int:
    """Mask of a generating set of the closed mask, greedily: each
    member, lowest first, outside the closure of those before it.  The
    neutral is never picked, and no stars are added.  It is the one
    picker: the group proof's Light's test, the derived series and
    is_strongly_normal all read it.  The whole hypergroup's set is
    picked once and kept on the hypergroup."""
    if mask == hg.full_mask and hg._gens is not None:
        return hg._gens
    gens, reached = 0, 1
    for s in bits_of(mask):
        if not reached >> s & 1:
            gens |= 1 << s
            reached = hg.closure_mask(gens)
    if mask == hg.full_mask:
        hg._gens = gens
    return gens


def _enumerate_closed(
    hg: Hypergroup, keep: Callable[[int], bool] | None
) -> tuple[ClosedSubset, ...]:
    """enumerate_closed_subsets' walk, uncached, narrowed by keep.

    keep, a predicate on masks, narrows the answer to the closed
    subsets it accepts, in the same order.  It must hold on every
    closed subset of a closed mask it holds on; nothing checks that.
    Then each closed subset it accepts is reached through accepted
    ones, by attributes whose singleton closure it accepts, so only
    those are tried, and keep is asked once per closed subset, after
    the test.  Everything outside the union of their closures joins
    the stop mask, as keep accepts no closed subset that leaves it.

    So one stop mask per attribute, the elements below j that C lacks
    and those outside, rejects j before closing, stops the closure and
    rejects its result.  A rejected closure, partial or whole, bounds
    the children: each child's closure with j holds it, as the child
    and its generators hold C's, so it meets the child's stop mask
    whenever the bound does.
    """
    attrs = _attributes(hg)
    outside = 0
    if keep is not None:
        if not keep(1):
            return ()
        verdict = {c: keep(c) for c in dict.fromkeys(c for _, c in attrs)}
        attrs = [(s, c) for s, c in attrs if verdict[c]]
        outside = ~reduce(or_, (c for _, c in attrs), 1)
    found = [1]
    # a node is (closed mask, generators, next attribute slot, bounds):
    # bounds[i] lies inside the node's closure with attrs[i]
    stack = [(1, 0, 0, [c for _, c in attrs])]
    while stack:
        cur, gens, first, bounds = stack.pop()
        passed = bounds[:]  # shared by the children, filled in below
        for i in range(first, len(attrs)):
            j, single = attrs[i]
            stop = ~cur & ((1 << j) - 1) | outside
            if cur >> j & 1 or bounds[i] & stop:
                continue
            ext = gens | 1 << j
            joined = hg.closure_mask(ext, stop) if gens else single
            if joined & stop:
                passed[i] = joined  # fails the test here, so in every child
            elif keep is None or (verdict[joined] if joined in verdict else keep(joined)):
                found.append(joined)
                stack.append((joined, ext, i + 1, passed))
    closed = (_as_closed(hg, m) for m in found)
    return tuple(sorted(closed, key=ElementSubset.sort_key))


def _normalizer(hg: Hypergroup, c: int, within: int) -> int:
    """Mask of the elements x of within with C x inside x C.

    For every x at once: C x is the union over the members y of C of
    row y read at x, and x C the union of column y, read through the
    rows; each union is one C-level pass per member.
    """
    rows = hg.table
    cx = xc = [0] * hg.size
    for y in bits_of(c):
        cx = list(map(or_, cx, rows[y]))
        xc = list(map(or_, xc, map(itemgetter(y), rows)))
    return mask_of(x for x in bits_of(within) if not cx[x] & ~xc[x])


def _conjugates(hg: Hypergroup, mask: int, within: int) -> Iterator[tuple[int, int]]:
    """Yield (h, h^ M h) for each element h of within, lowest first.

    h^M is row h^ over the members of M, listed once; (h^M)h is then
    column h over h^M, read as rows[y][h].
    """
    rows = hg.table
    inv = hg.inverse
    members = bits_of(mask)
    for h in bits_of(within):
        row = rows[inv[h]]
        hm = 0
        for x in members:
            hm |= row[x]
        conj = 0
        for y in bits_of(hm):
            conj |= rows[y][h]
        yield h, conj


def _conjugators(hg: Hypergroup, t: int, u: int, within: int) -> Iterator[int]:
    """Yield each h of within, lowest first, with h^ T h = U, for masks t and u."""
    return (h for h, conj in _conjugates(hg, t, within) if conj == u)


def normalizes(d: ElementSubset, e: ElementSubset) -> bool:
    """True when E d is contained in d E for every element d of D."""
    d._check(e)
    return _normalizer(d.parent, e.bits, d.bits) == d.bits


def is_normal_in(f: ElementSubset, g: ElementSubset) -> bool:
    """True when F lies inside G and G normalizes F.  Closedness is not
    checked: for closed F and G this is F normal in G."""
    f._check(g)
    if not f.issubset(g):
        return False
    return normalizes(g, f)


def is_strongly_normal(f: ElementSubset, g: ElementSubset) -> bool:
    """F strongly normal in G: h^ F h inside F for every h in G.

    When G is the whole hypergroup, only the h of its _generators and
    their stars are tried; the set is picked once per hypergroup, and
    the stars are added on each read.  The h with h^ F h inside F hold
    the neutral element and are closed under products: for k in h1 h2,
    H3 puts k^ in h2^ h1^, so k^ F k lies in h2^ (h1^ F h1) h2, inside
    h2^ F h2, inside F.  So they hold the closure of the generators and
    their stars, which is every element.

    Raises NotSubsetError when F is not contained in G.
    """
    f._check(g)
    if not f.issubset(g):
        raise NotSubsetError("strong normality is only defined for F inside G")
    hg = f.parent
    within = g.bits
    if within == hg.full_mask:
        gens = _generators(hg, within)
        within = gens | hg.star_mask(gens)
    return all(not conj & ~f.bits for _, conj in _conjugates(hg, f.bits, within))


def is_subnormal(f: ElementSubset, g: ElementSubset) -> bool:
    """True when a chain F = F0 normal in F1 ... normal in Fn = G exists.

    Depth first over the closed subsets between F and G: C steps to each
    closed D above it that lies in the normalizer of C in G, which is
    exactly when C is normal in D.
    """
    f._check(g)
    if not f.issubset(g):
        return False
    if f.bits == g.bits:
        return True
    hg = f.parent
    if not hg.is_closed_mask(f.bits):
        return False  # every link of a chain is a closed subset
    subs = [d.bits for d in enumerate_closed_subsets(hg)]
    target = g.bits
    seen = {f.bits}
    stack = [f.bits]
    while stack:
        cur = stack.pop()
        norm = _normalizer(hg, cur, target)
        for up in subs:
            if up == cur or cur & ~up or up & ~norm:
                continue
            if up == target:
                return True
            if up not in seen:
                seen.add(up)
                stack.append(up)
    return False


def _thin_residue(hg: Hypergroup, mask: int) -> int:
    """Closure of the products s^s over the elements s of a closed mask."""
    return hg.closure_mask(reduce(or_, (hg.table[hg.inverse[s]][s] for s in bits_of(mask))))


def theta_core(hg: Hypergroup) -> ClosedSubset:
    """The thin residue: the closed subset generated by every s^s.

    Each strongly normal closed subset contains every s^s, so this is
    the smallest one once it is strongly normal itself, which is checked
    rather than trusted.
    """
    core = ClosedSubset(hg, _thin_residue(hg, hg.full_mask))
    if not is_strongly_normal(core, hg.universe()):
        raise InternalInconsistencyError("theta core lost strong normality")
    return core


def is_thin(hg: Hypergroup) -> bool:
    """Whether every element is thin, read off the cells h^h directly."""
    table = hg.table
    return all(table[t][s] == 1 for s, t in enumerate(hg.inverse))


def double_cosets(hg: Hypergroup, f: ElementSubset) -> list[int]:
    """Masks of the double cosets F h F of hg, in order of their smallest member."""
    hg.universe()._check(f)
    if not hg.is_closed_mask(f.bits):
        raise NotSubsetError("double cosets need a closed modulus")
    return _double_cosets(hg, f.bits, hg.full_mask)


def _double_cosets(hg: Hypergroup, f: int, domain: int) -> list[int]:
    """double_cosets for a modulus mask f already known to be closed."""
    out: list[int] = []
    remaining = domain
    while remaining:
        h = remaining & -remaining
        coset = hg.mul_masks(hg.mul_masks(f, h), f)
        out.append(coset)
        if coset & ~domain:
            raise NotSubsetError("double coset escaped the ambient subset")
        remaining &= ~coset
    return out


def format_table(hg: Hypergroup) -> str:
    """Text grid of the product table, for debugging and the CLI."""
    cells = [
        ["{" + ",".join(map(str, bits_of(hg.table[a][b]))) + "}" for b in hg.elements]
        for a in hg.elements
    ]
    width = max(len(c) for row in cells for c in row)
    head = "    " + " ".join(str(b).rjust(width) for b in hg.elements)
    lines = [head]
    for a in hg.elements:
        lines.append(
            str(a).rjust(3) + " " + " ".join(c.rjust(width) for c in cells[a])
        )
    return "\n".join(lines)
