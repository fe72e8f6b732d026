"""Association schemes: validation, the induced hypergroup, quotients.

A scheme is stored as its relation matrix rel, with rel[x][y] the index
of the relation containing the pair (x, y).  Relation 0 is the
identity, so rel[x][y] == 0 exactly when x == y.  Validation checks the
partition shape, the star pairing and full regularity: the intersection
number a[p][q][r] = |{x : rel(y,x) = p and rel(x,z) = q}| must not
depend on which pair (y, z) of relation r is used.  Once the star
pairing holds, a_pq(z, y) = a_{q*p*}(y, z), so the pairs (y, z) with
z = 0 or z >= y are compared, which settles every pair; none is sampled.

Relations multiply through the induced hypergroup: p q is the set of
relations r with a[p][q][r] != 0; it carries the valencies, so a closed
set of relations is a ClosedSubset of it.  The quotient scheme on blocks
lives here as well.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain
from operator import add, itemgetter
from typing import NoReturn

from .arith import is_pi_number, pi_part, prime_factors, validate_pi
from .errors import (
    IdentityViolationError,
    InternalInconsistencyError,
    NotClosedError,
    NotPartitionError,
    ParentMismatchError,
    NotSquareError,
    RegularityViolationError,
    SchemeTooLargeError,
    StarViolationError,
)
from .groups import thin_hypergroup
from .hypergroup import (
    ClosedSubset,
    ElementSubset,
    Hypergroup,
    _conjugates,
    _conjugators,
    enumerate_closed_subsets,
    mask_of,
    validate_hypergroup,
)
from .quotient import QuotientHypergroup, quotient
from .solvability import SolvableChain, is_solvable, solvable_chain

__all__ = [
    "AssociationScheme",
    "QuotientScheme",
    "validate_scheme",
    "from_group",
    "wreath_matrix",
    "tensor_matrix",
    "quotient_scheme",
    "pi_predicates",
    "is_pi_valenced",
    "conjugate_subset",
    "conjugators",
    "solvable_chain_scheme",
    "is_solvable_scheme",
]


class AssociationScheme:
    """A validated association scheme.  Build via validate_scheme."""

    def __init__(
        self,
        rel: tuple[tuple[int, ...], ...],
        star_map: tuple[int, ...],
        valencies: tuple[int, ...],
        products: Sequence[Sequence[int]],
        name: str = "",
    ):
        self.rel = rel
        self.n_points = len(rel)
        self.rank = len(valencies)
        self.star_map = star_map
        self.valencies = valencies
        self.name = name
        self._products = products  # products[p][q]: mask of r with a_{pqr} != 0
        # Hall contexts by pi & primes, filled by schemehall.hall
        self._hall_contexts: dict = {}
        # masks of the pi-valenced relations, by pi & primes
        self._pi_valenced: dict = {}

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<AssociationScheme{tag} on {self.n_points} points, rank {self.rank}>"

    @cached_property
    def primes(self) -> frozenset[int]:
        """Primes dividing n or some valency; no other prime matters to pi."""
        return frozenset(p for k in (self.n_points, *self.valencies) for p in prime_factors(k))

    @cached_property
    def hypergroup(self) -> Hypergroup:
        """Relations under complex multiplication, carrying the valencies;
        their inverses must be star_map."""
        raw = self._products
        try:
            hg = validate_hypergroup(raw, name=self.name or "scheme relations")
        except Exception as exc:
            raise InternalInconsistencyError(
                f"relations of a valid scheme must form a hypergroup: {exc}"
            ) from exc
        if hg.table != tuple(tuple(row) for row in raw):
            raise InternalInconsistencyError("identity relation was not the hypergroup neutral")
        if hg.inverse != self.star_map:
            raise InternalInconsistencyError("hypergroup inverses differ from the star map")
        self._products = None  # hg.table holds the same masks now
        hg.valencies = self.valencies
        return hg

    def intersection_numbers(self, r: int) -> tuple[tuple[int, ...], ...]:
        """table[p][q] = a_{pqr}, counted over the pair (0, z) of relation
        r in row 0; validation proved every pair of r gives this table."""
        if type(r) is not int or not 0 <= r < self.rank:  # bool is an int subclass
            raise ValueError(f"relation {r} is out of range for rank {self.rank}")
        rel = self.rel
        return tuple(map(tuple, _count_table(rel, 0, rel[0].index(r), self.rank)))

    def closed_subset(self, relations: Iterable[int] | int) -> ClosedSubset:
        sub = self.hypergroup.subset(relations)
        if not sub.is_closed():
            raise NotClosedError(f"relation set {sub.members()} is not closed")
        return ClosedSubset(sub.parent, sub.bits)

    def closed_subsets(self) -> tuple[ClosedSubset, ...]:
        """Every closed relation set: enumerate_closed_subsets of the hypergroup, cached there."""
        return enumerate_closed_subsets(self.hypergroup)


# ---------------------------------------------------------------------------
# validation

# Largest n * rank**2 validate_scheme accepts.  The regularity pass
# sorts n pair codes for each of the n * (n + 1) / 2 + n - 1 pairs
# (y, z) with z = 0 or z >= y inside C builtins, about n**3 log n / 2
# steps, and keeps one key of n codes per relation while it runs; a
# thin input (every row a permutation) is keyed without sorting, about
# n**3 / 2 steps in C.  The cap admits a thin scheme on 96 points
# (96 * 96**2 = 884,736) and every bundled input.
SCHEME_SIZE_CAP = 1 << 20


def validate_scheme(matrix: Sequence[Sequence[int]], name: str = "") -> AssociationScheme:
    """Check the scheme axioms on a relation matrix.

    Errors, in the order the axioms are tested: NotSquareError,
    NotPartitionError (labels not a contiguous 0-based range),
    SchemeTooLargeError (n * rank**2 above SCHEME_SIZE_CAP, raised
    before the per-pair passes start), IdentityViolationError,
    StarViolationError and RegularityViolationError with a five-index
    witness.

    Every point pair is covered, with the per-pair work in C builtins.
    Each row must hold its one 0 on the diagonal; the set of pairs
    (rel[x][y], rel[y][x]) must hold one partner per relation, so
    rel(z, y) = rel(y, z)*.  Pair (y, z) is keyed by the sorted codes
    rank * rel[y][x] + rel[x][z] over all x, equal keys meaning equal
    intersection-number tables, and each key is compared with the first
    key of its relation, for the pairs with z = 0 or z >= y only: the
    table of (y, z) is that of (z, y) transposed and starred, so the
    pairs of r below the diagonal share the starred table of r*, which
    the column-0 pairs tie to the table of r (the diagonal pairs equate
    every row's label counts, so column 0 meets every relation).  A
    thin input (rank == n > 1, every row a permutation) is keyed
    without sorting, in the order of rel[y][x] = 0, 1, ...  Only when
    two keys differ is every pair keyed, in row-major order, and the
    first differing pair's two count tables run, to name the witness
    the pairwise loops would.  Valencies are the label counts of row 0,
    and the relation products come from the distinct codes of each key;
    no intersection number is stored (AssociationScheme.intersection_numbers
    counts them on demand).  Cost: n * (n + 1) / 2 + n - 1 keys, about
    n**3 log n / 2 steps in C plus n**2 / 2 in Python, or n**3 / 2 steps
    in C on a thin input.
    """
    n = len(matrix)
    if n == 0:
        raise NotPartitionError("empty matrix")
    rel: list[tuple[int, ...]] = []
    for x, row in enumerate(matrix):
        if len(row) != n:
            raise NotSquareError(f"row {x} has length {len(row)}, expected {n}")
        rel.append(tuple(row))

    labels = set(chain.from_iterable(rel))
    # the type of every entry: the set keeps one of the equal 1, 1.0 and True
    if set(map(type, chain.from_iterable(rel))) != {int} or min(labels) < 0:
        raise NotPartitionError("relation labels must be non-negative integers")
    rank = max(labels) + 1
    missing = set(range(rank)) - labels
    if missing:
        raise NotPartitionError(f"labels must form a contiguous range; missing {sorted(missing)}")
    _check_size(n, rank)

    cols = list(zip(*rel))
    for x, row in enumerate(rel):
        if row[x] != 0 or row.count(0) != 1:
            _raise_identity_witness(rel, x)

    # rel[x][y] meets rel[y][x] = cols[x][y]; each relation has one
    # partner exactly when there are rank distinct pairs
    pairs = set(zip(chain.from_iterable(rel), chain.from_iterable(cols)))
    if len(pairs) != rank:
        _raise_star_witness(rel, rank)
    star = list(map(dict(pairs).__getitem__, range(rank)))  # one pair per label
    for s in range(rank):
        if star[star[s]] != s:
            raise StarViolationError(f"star map is not an involution at {s}")

    thin = rank == n > 1 and all(len(set(row)) == n for row in rel)
    keys = _pair_keys(rel, cols, rank, thin, upper=True)
    if keys is None:
        _pair_keys(rel, cols, rank, thin, upper=False)  # names the witness
        raise InternalInconsistencyError("pair keys differ but no count table does")

    # row 0 meets every relation, and regularity of relation 0 makes
    # every row's label counts equal: these are the a_{s s* 0}
    valencies = tuple(map(rel[0].count, range(rank)))

    # p q holds r exactly when code rank*p + q occurs in the key of r;
    # a thin key holds the one q of each p
    products = [[0] * rank for _ in range(rank)]
    for r, key in enumerate(keys):
        for p, q in enumerate(key) if thin else (divmod(c, rank) for c in set(key)):
            products[p][q] |= 1 << r
    return AssociationScheme(tuple(rel), tuple(star), valencies, products, name=name)


def _check_size(n: int, rank: int) -> None:
    """Raise SchemeTooLargeError when n * rank**2 is above SCHEME_SIZE_CAP."""
    if n * rank * rank > SCHEME_SIZE_CAP:
        raise SchemeTooLargeError(
            f"{n} points of rank {rank} give n * rank**2 = {n * rank * rank}, "
            f"above the cap {SCHEME_SIZE_CAP}"
        )


def _pair_keys(
    rel: Sequence[Sequence[int]], cols: Sequence[Sequence[int]], rank: int, thin: bool, upper: bool
) -> list[Sequence[int]] | None:
    """The key of each relation's first pair (y, z), each later pair's
    key compared with it.  With upper, only the pairs with z = 0 or
    z >= y are keyed, and a differing key returns None; otherwise every
    pair is, in row-major order, and a differing key raises the
    RegularityViolationError its two count tables name.  A thin key
    lists rel[x][z] for the x with rel[y][x] = 0, 1, ...: the sorted
    codes rank*rel[y][x] + rel[x][z] less rank * rel[y][x].
    """
    n = len(rel)
    keys: list[Sequence[int] | None] = [None] * rank
    first: list[tuple[int, int]] = [(0, 0)] * rank
    for y, row in enumerate(rel):
        if thin:
            at = dict(zip(row, range(n)))  # rel[y][at[p]] = p
            pick = itemgetter(*map(at.__getitem__, range(n)))
        else:
            codes = [rank * p for p in row]
        for z in (0, *range(y, n)) if upper and y else range(n):
            r = row[z]
            key = pick(cols[z]) if thin else sorted(map(add, codes, cols[z]))
            known = keys[r]
            if known is None:
                keys[r] = key
                first[r] = (y, z)
            elif known != key:
                if upper:
                    return None
                want = _count_table(rel, *first[r], rank)
                got = _count_table(rel, y, z, rank)
                for p in range(rank):
                    for q in range(rank):
                        if want[p][q] != got[p][q]:
                            raise RegularityViolationError(p, q, r, y, z)
    return keys


def _count_table(rel: Sequence[Sequence[int]], y: int, z: int, rank: int) -> list[list[int]]:
    """counts[p][q] = |{x : rel(y, x) = p and rel(x, z) = q}|, one pass over x."""
    counts = [[0] * rank for _ in range(rank)]
    rel_y = rel[y]
    for x in range(len(rel)):
        counts[rel_y[x]][rel[x][z]] += 1
    return counts


def _raise_identity_witness(rel: Sequence[Sequence[int]], x: int) -> NoReturn:
    """Row x holds 0 off the diagonal or not on it: name the diagonal
    first, then the first y != x with rel[x][y] = 0."""
    if rel[x][x] != 0:
        raise IdentityViolationError(x, x, f"diagonal entry ({x}, {x}) is not 0")
    for y in range(len(rel)):
        if x != y and rel[x][y] == 0:
            raise IdentityViolationError(x, y)
    raise InternalInconsistencyError(f"row {x} passed the identity check")


def _raise_star_witness(rel: Sequence[Sequence[int]], rank: int) -> NoReturn:
    """Some relation meets two partners: name the first pair, in row-major
    order, that contradicts the partner seen before it."""
    star = [-1] * rank
    n = len(rel)
    for x in range(n):
        for y in range(n):
            s, t = rel[x][y], rel[y][x]
            if star[s] == -1:
                star[s] = t
            elif star[s] != t:
                raise StarViolationError(
                    f"relation {s} pairs with both {star[s]} and {t}, "
                    f"seen at ({x}, {y})"
                )
    raise InternalInconsistencyError("every relation met a single partner")


def from_group(table: Sequence[Sequence[int]], name: str = "") -> AssociationScheme:
    """The thin scheme of a group: (x, y) lies in relation g when y = xg.
    It has rank n, so the size cap is applied before the group checks.
    Its hypergroup comes from groups.thin_hypergroup, the one builder of a
    group's thin hypergroup, whose proof of the group axioms is its proof
    of H1-H3, with relation 0 as its neutral and the star map as its
    inverse.  Once the table is a group the scheme axioms hold by
    construction: relation g has valency 1 and partner g^-1, and relation
    p then q is relation pq."""
    _check_size(len(table), len(table))
    hg = thin_hypergroup(table, name=name or "scheme relations")
    t, inv = hg._thin_table, hg.inverse
    rel = tuple(t[i] for i in inv)  # row x is row x^-1 of the table
    hg.valencies = (1,) * len(t)
    scheme = AssociationScheme(rel, inv, hg.valencies, hg.table, name=name)
    scheme.hypergroup = hg  # the cached_property's value
    return scheme


# ---------------------------------------------------------------------------
# products of schemes

Matrix = tuple[tuple[int, ...], ...]


def wreath_matrix(inner: AssociationScheme, outer: AssociationScheme) -> Matrix:
    """Blocks shaped like `inner`, one per point of `outer`; cross-block
    pairs see only the outer relation."""
    shift = inner.rank - 1
    pts = [(o, i) for o in range(outer.n_points) for i in range(inner.n_points)]

    def r(p, q):
        if p[0] == q[0]:
            return inner.rel[p[1]][q[1]]
        return shift + outer.rel[p[0]][q[0]]

    return tuple(tuple(r(p, q) for q in pts) for p in pts)


def tensor_matrix(s1: AssociationScheme, s2: AssociationScheme) -> Matrix:
    """Points are pairs; a pair of pairs is labelled by its two relations,
    numbered in order of first appearance."""
    pts = [(x1, x2) for x1 in range(s1.n_points) for x2 in range(s2.n_points)]
    label: dict[tuple[int, int], int] = {}
    rows = []
    for p in pts:
        row = []
        for q in pts:
            key = (s1.rel[p[0]][q[0]], s2.rel[p[1]][q[1]])
            if key not in label:
                label[key] = len(label)
            row.append(label[key])
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# quotient schemes


class QuotientScheme:
    """Scheme on the blocks x T, plus the bookkeeping of the projection."""

    __slots__ = (
        "scheme",
        "modulus",
        "blocks",
        "hyper_quotient",
    )

    def __init__(
        self,
        scheme: AssociationScheme,
        modulus: ClosedSubset,
        blocks: tuple[tuple[int, ...], ...],
        hyper_quotient: QuotientHypergroup,
    ):
        self.scheme = scheme
        self.modulus = modulus
        self.blocks = blocks
        self.hyper_quotient = hyper_quotient

    def __repr__(self) -> str:
        return (
            f"<QuotientScheme on {self.scheme.n_points} blocks, "
            f"rank {self.scheme.rank}>"
        )


def quotient_scheme(scheme: AssociationScheme, modulus: ClosedSubset) -> QuotientScheme:
    """Quotient by a closed relation set T.

    T is closed, so "rel(x, y) lies in T" is an equivalence relation
    (reflexive as 0 is in T, symmetric as T* = T, transitive as TT is
    inside T) and the block of x is read off row x.  Quotient relations
    are the double cosets T s T, and the valency law
    n_{s^T} * n_T = n_{TsT} is checked exactly.  Its products and star
    map must be the table and inverse quotient proved H1-H3 for, which
    become its hypergroup.  Either failure raises InternalInconsistencyError.
    """
    hg = _own_subset(scheme, modulus, "modulus")
    hq = quotient(hg, modulus)

    n = scheme.n_points
    t_bits = modulus.bits
    block_of = [-1] * n
    members: list[list[int]] = []
    for x in range(n):
        if block_of[x] != -1:
            continue
        block = [y for y, r in enumerate(scheme.rel[x]) if t_bits >> r & 1]
        if len(block) != modulus.valency:
            raise InternalInconsistencyError("blocks of a closed subset must all have size n_T")
        for y in block:
            if block_of[y] != -1:
                raise InternalInconsistencyError("blocks of a closed subset overlap")
            block_of[y] = len(members)
        members.append(block)

    k = len(members)
    qrel = [[-1] * k for _ in range(k)]
    for x in range(n):
        bx = block_of[x]
        rel_x = scheme.rel[x]
        for y in range(n):
            c = hq.coset_of[rel_x[y]]
            cur = qrel[bx][block_of[y]]
            if cur == -1:
                qrel[bx][block_of[y]] = c
            elif cur != c:
                raise InternalInconsistencyError("block pair met two different relation cosets")

    qscheme = validate_scheme(qrel, name=f"{scheme.name}//T" if scheme.name else "")
    if tuple(map(tuple, qscheme._products)) != hq.table or qscheme.star_map != hq.inverse:
        raise InternalInconsistencyError(
            "hypergroup of the quotient scheme differs from the quotient "
            "of the hypergroup"
        )
    qscheme._products = None  # the hypergroup's table holds the same masks
    qscheme.hypergroup = Hypergroup(hq.table, hq.inverse, name=qscheme.name or "scheme relations")
    qscheme.hypergroup.valencies = qscheme.valencies

    n_t = modulus.valency
    for s in range(scheme.rank):
        c = hq.coset_of[s]
        coset_valency = hg.valency_of_mask(hq.cosets[c])
        if qscheme.valencies[c] * n_t != coset_valency:
            raise InternalInconsistencyError(
                f"valency law fails at relation {s}: "
                f"{qscheme.valencies[c]} * {n_t} != {coset_valency}"
            )

    return QuotientScheme(
        qscheme,
        modulus,
        tuple(tuple(m) for m in members),
        hq,
    )


# ---------------------------------------------------------------------------
# pi predicates and conjugation


class PiPredicates:
    """The three membership tests for one (scheme, subset, pi) triple."""

    __slots__ = ("is_pi_valenced", "is_closed_pi_subset", "is_hall_pi_subset")

    def __init__(self, pi_valenced: bool, closed_pi: bool, hall: bool):
        self.is_pi_valenced = pi_valenced
        self.is_closed_pi_subset = closed_pi
        self.is_hall_pi_subset = hall

    def __repr__(self) -> str:
        return (
            f"<PiPredicates valenced={self.is_pi_valenced} "
            f"closed_pi={self.is_closed_pi_subset} hall={self.is_hall_pi_subset}>"
        )


def _pi_valenced_mask(scheme: AssociationScheme, ps: frozenset[int]) -> int:
    """Mask of the relations whose valency is a ps-number, for a validated
    ps, testing each distinct valency once; cached per scheme by
    ps & primes, as no other prime decides it."""
    key = ps & scheme.primes
    mask = scheme._pi_valenced.get(key)
    if mask is None:
        vals = scheme.valencies
        ok = {v: is_pi_number(v, key) for v in set(vals)}
        mask = scheme._pi_valenced[key] = mask_of(s for s, v in enumerate(vals) if ok[v])
    return mask


def is_pi_valenced(scheme: AssociationScheme, pi: Iterable[int]) -> bool:
    """True when every relation valency of the scheme is a pi-number."""
    return _pi_valenced_mask(scheme, validate_pi(pi)) == (1 << scheme.rank) - 1


def _own_subset(scheme: AssociationScheme, subset: object, what: str = "subset") -> Hypergroup:
    """scheme.hypergroup, once subset is checked to be one of its closed
    subsets; anything else raises ParentMismatchError naming what."""
    hg = scheme.hypergroup
    if not isinstance(subset, ClosedSubset) or subset.parent is not hg:
        raise ParentMismatchError(f"{what} belongs to a different scheme")
    return hg


def pi_predicates(
    scheme: AssociationScheme, subset: ClosedSubset, pi: Iterable[int]
) -> PiPredicates:
    _own_subset(scheme, subset)
    ps = validate_pi(pi)
    valenced = _pi_valenced_mask(scheme, ps)
    closed_pi, hall = _pi_tests(scheme, subset, valenced, pi_part(scheme.n_points, ps))
    return PiPredicates(subset.bits & ~valenced == 0, closed_pi, hall)


def _pi_tests(
    scheme: AssociationScheme, subset: ClosedSubset, valenced: int, target: int
) -> tuple[bool, bool]:
    """(closed pi-subset, Hall pi-subset) for a closed subset of
    scheme.hypergroup, from the mask of the pi-valenced relations and
    target, the pi-part of n.  Its valency v divides n, which is checked,
    so v is a pi-number exactly when it divides target, and then the
    index n / v is a pi'-number too exactly when v is target."""
    v = subset.valency
    if scheme.n_points % v:
        raise InternalInconsistencyError("closed subset valency must divide n")
    if subset.bits & ~valenced:
        return False, False
    return target % v == 0, v == target


def conjugate_subset(
    scheme: AssociationScheme, subset: ClosedSubset, s: int
) -> ElementSubset:
    """The relation set s^ T s.  One-sided; not assumed closed."""
    hg = _own_subset(scheme, subset)
    if type(s) is not int or not 0 <= s < scheme.rank:  # bool is an int subclass
        raise ValueError(f"relation {s} is out of range for rank {scheme.rank}")
    _, mask = next(_conjugates(hg, subset.bits, 1 << s))
    return ElementSubset(hg, mask)


def conjugators(scheme: AssociationScheme, t: ClosedSubset, u: ClosedSubset) -> tuple[int, ...]:
    """All relations s with s^ T s = U, checked one-sided only.

    Swapping the arguments answers the other direction; nothing here
    assumes the two agree.
    """
    hg = _own_subset(scheme, t)
    _own_subset(scheme, u)
    return tuple(_conjugators(hg, t.bits, u.bits, hg.full_mask))


# ---------------------------------------------------------------------------
# solvability at the scheme level


def solvable_chain_scheme(scheme: AssociationScheme) -> SolvableChain | None:
    """Chain of closed subsets with strongly normal prime-index steps.

    The solvable chain of the induced hypergroup, refined from its
    residue series.  Each of its steps is strongly normal with a prime
    number of double cosets, and for a strongly normal step that number
    is the valency index; every call checks the valency index against
    the step prime, reading each subset's valency once.
    """
    chain = solvable_chain(scheme.hypergroup)
    if chain is not None:
        vals = [c.valency for c in chain.subsets]
        for lo, hi, p in zip(vals, vals[1:], chain.step_primes):
            if hi != lo * p:
                raise InternalInconsistencyError(
                    f"valency index {hi}/{lo} of a solvable step is not its prime {p}"
                )
    return chain


def is_solvable_scheme(scheme: AssociationScheme) -> bool:
    """Read off the residue series of the induced hypergroup; no chain is built."""
    return is_solvable(scheme.hypergroup)
