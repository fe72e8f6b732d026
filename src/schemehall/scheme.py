"""Association schemes: validation, the induced hypergroup, quotients.

A scheme is stored as its relation matrix rel, with rel[x][y] the index
of the relation containing the pair (x, y).  Relation 0 is the
identity, so rel[x][y] == 0 exactly when x == y.  Validation checks the
partition shape, the star pairing and full regularity: the intersection
number a[p][q][r] = |{x : rel(y,x) = p and rel(x,z) = q}| must not
depend on which pair (y, z) of relation r is used, and this is checked
for every point pair, not sampled.

Relations multiply through the induced hypergroup: p q is the set of
relations r with a[p][q][r] != 0.  Closed subsets of relations, their
valencies and the quotient scheme on blocks live here as well.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

from .arith import is_pi_number, prime_factors, validate_pi
from .errors import (
    IdentityViolationError,
    InternalInconsistencyError,
    NotAGroupError,
    NotClosedError,
    NotPartitionError,
    ParentMismatchError,
    NotSquareError,
    RegularityViolationError,
    SchemeTooLargeError,
    StarViolationError,
)
from .groups import Table, validate_group
from .hypergroup import (
    ClosedSubset,
    ElementSubset,
    Hypergroup,
    bits_of,
    enumerate_closed_subsets,
    mask_of,
    validate_hypergroup,
)
from .quotient import QuotientHypergroup, quotient
from .solvability import solvable_chain

__all__ = [
    "AssociationScheme",
    "SchemeClosedSubset",
    "QuotientScheme",
    "SchemeSolvableChain",
    "PiPredicates",
    "validate_scheme",
    "from_group",
    "to_hypergroup",
    "quotient_scheme",
    "pi_predicates",
    "is_pi_valenced",
    "conjugate_subset",
    "conjugators",
    "solvable_chain_scheme",
    "is_solvable_scheme",
    "SCHEME_SIZE_CAP",
]


class AssociationScheme:
    """A validated association scheme.  Build via validate_scheme."""

    def __init__(
        self,
        rel: tuple[tuple[int, ...], ...],
        star_map: tuple[int, ...],
        tensor: tuple[tuple[tuple[int, ...], ...], ...],
        valencies: tuple[int, ...],
        name: str = "",
    ):
        self.rel = rel
        self.n_points = len(rel)
        self.rank = len(valencies)
        self.star_map = star_map
        self.tensor = tensor  # tensor[r][p][q] = a_{pqr}
        self.valencies = valencies
        self.name = name
        # Hall contexts by pi & primes, filled by schemehall.hall
        self._hall_contexts: dict = {}
        self._closed_subsets: tuple[SchemeClosedSubset, ...] | None = None

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<AssociationScheme{tag} on {self.n_points} points, rank {self.rank}>"

    @cached_property
    def primes(self) -> frozenset[int]:
        """Primes dividing n or some valency; no other prime matters to pi."""
        return frozenset(
            p for k in (self.n_points, *self.valencies) for p in prime_factors(k)
        )

    @cached_property
    def hypergroup(self) -> Hypergroup:
        """Relations under complex multiplication."""
        rank = self.rank
        raw = [
            [
                mask_of(r for r in range(rank) if self.tensor[r][p][q])
                for q in range(rank)
            ]
            for p in range(rank)
        ]
        try:
            hg = validate_hypergroup(raw, name=self.name or "scheme relations")
        except Exception as exc:
            raise InternalInconsistencyError(
                f"relations of a valid scheme must form a hypergroup: {exc}"
            ) from exc
        if hg.table != tuple(tuple(row) for row in raw):
            raise InternalInconsistencyError(
                "identity relation was not the hypergroup neutral"
            )
        return hg

    def complex_product(self, p: int, q: int) -> ElementSubset:
        return self.hypergroup.product(p, q)

    def valency_of_mask(self, mask: int) -> int:
        return sum(self.valencies[s] for s in bits_of(mask))

    def closed_subset(self, relations: Iterable[int] | int) -> "SchemeClosedSubset":
        sub = self.hypergroup.subset(relations)
        if not sub.is_closed():
            raise NotClosedError(
                f"relation set {sub.members()} is not closed"
            )
        return SchemeClosedSubset(self, ClosedSubset(self.hypergroup, sub.bits))

    def relation_closure(self, relations: Iterable[int] | int) -> "SchemeClosedSubset":
        sub = self.hypergroup.subset(relations)
        closed = self.hypergroup.closure_mask(sub.bits)
        return SchemeClosedSubset(self, ClosedSubset(self.hypergroup, closed))

    def closed_subsets(self) -> tuple["SchemeClosedSubset", ...]:
        """Every closed relation set, in enumerate_closed_subsets order; cached."""
        if self._closed_subsets is None:
            self._closed_subsets = tuple(
                SchemeClosedSubset(self, c)
                for c in enumerate_closed_subsets(self.hypergroup)
            )
        return self._closed_subsets

    def identity_subset(self) -> "SchemeClosedSubset":
        return SchemeClosedSubset(self, self.hypergroup.neutral_subset())

    def full_subset(self) -> "SchemeClosedSubset":
        return SchemeClosedSubset(self, self.hypergroup.universe())


class SchemeClosedSubset:
    """A closed set of relations tagged with its valency."""

    __slots__ = ("scheme", "subset", "valency")

    def __init__(self, scheme: AssociationScheme, subset: ClosedSubset):
        self.scheme = scheme
        self.subset = subset
        self.valency = scheme.valency_of_mask(subset.bits)

    @property
    def bits(self) -> int:
        return self.subset.bits

    def members(self) -> tuple[int, ...]:
        return self.subset.members()

    def __len__(self) -> int:
        return len(self.subset)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchemeClosedSubset):
            return NotImplemented
        return self.scheme is other.scheme and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((id(self.scheme), self.bits))

    def __repr__(self) -> str:
        return f"<closed relations {list(self.members())} valency {self.valency}>"

    def index_in(self, other: "SchemeClosedSubset") -> int:
        """Valency index n_U / n_T for T inside U; divisibility asserted."""
        if self.scheme is not other.scheme:
            raise InternalInconsistencyError("subsets of different schemes")
        if other.valency % self.valency:
            raise InternalInconsistencyError(
                f"valency {self.valency} does not divide {other.valency}"
            )
        return other.valency // self.valency


# ---------------------------------------------------------------------------
# validation

# Largest n * rank**2 validate_scheme accepts.  The regularity pass
# costs about n**2 * (n + rank**2); the cap admits a thin scheme on 96
# points (96 * 96**2 = 884,736) and every bundled input.
SCHEME_SIZE_CAP = 1 << 20


def validate_scheme(matrix: Sequence[Sequence[int]], name: str = "") -> AssociationScheme:
    """Check the scheme axioms on a relation matrix.

    Errors, in the order the axioms are tested: NotSquareError,
    NotPartitionError (labels not a contiguous 0-based range),
    SchemeTooLargeError (n * rank**2 above SCHEME_SIZE_CAP, raised
    before the per-pair passes start), IdentityViolationError,
    StarViolationError and RegularityViolationError with a five-index
    witness.
    """
    n = len(matrix)
    if n == 0:
        raise NotPartitionError("empty matrix")
    rel: list[tuple[int, ...]] = []
    for x, row in enumerate(matrix):
        if len(row) != n:
            raise NotSquareError(f"row {x} has length {len(row)}, expected {n}")
        rel.append(tuple(row))

    labels = {v for row in rel for v in row}
    if any(not isinstance(v, int) or v < 0 for v in labels):
        raise NotPartitionError("relation labels must be non-negative integers")
    rank = max(labels) + 1
    missing = set(range(rank)) - labels
    if missing:
        raise NotPartitionError(
            f"labels must form a contiguous range; missing {sorted(missing)}"
        )
    if n * rank * rank > SCHEME_SIZE_CAP:
        raise SchemeTooLargeError(
            f"{n} points of rank {rank} give n * rank**2 = {n * rank * rank}, "
            f"above the cap {SCHEME_SIZE_CAP}"
        )

    for x in range(n):
        if rel[x][x] != 0:
            raise IdentityViolationError(x, x, f"diagonal entry ({x}, {x}) is not 0")
        for y in range(n):
            if x != y and rel[x][y] == 0:
                raise IdentityViolationError(x, y)

    star = [-1] * rank
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
    for s in range(rank):
        if star[star[s]] != s:
            raise StarViolationError(f"star map is not an involution at {s}")

    tensor: list[list[list[int]] | None] = [None] * rank
    for y in range(n):
        rel_y = rel[y]
        for z in range(n):
            r = rel_y[z]
            counts = [[0] * rank for _ in range(rank)]
            for x in range(n):
                counts[rel_y[x]][rel[x][z]] += 1
            known = tensor[r]
            if known is None:
                tensor[r] = counts
            elif known != counts:
                for p in range(rank):
                    for q in range(rank):
                        if known[p][q] != counts[p][q]:
                            raise RegularityViolationError(p, q, r, y, z)

    valencies = tuple(tensor[0][s][star[s]] for s in range(rank))
    if sum(valencies) != n:
        raise InternalInconsistencyError("valencies do not sum to the point count")

    return AssociationScheme(
        tuple(rel),
        tuple(star),
        tuple(tuple(tuple(q) for q in r) for r in tensor),
        valencies,
        name=name,
    )


def from_group(table: Sequence[Sequence[int]], name: str = "") -> AssociationScheme:
    """The thin scheme of a group: (x, y) lies in relation g when y = xg."""
    t: Table = validate_group(table)
    n = len(t)
    inv = [0] * n
    for x in range(n):
        for y in range(n):
            if t[x][y] == 0:
                inv[x] = y
                break
    rel = [[t[inv[x]][y] for y in range(n)] for x in range(n)]
    scheme = validate_scheme(rel, name=name)
    if scheme.rank != n:
        raise NotAGroupError("group scheme must be thin")
    return scheme


def to_hypergroup(scheme: AssociationScheme) -> Hypergroup:
    return scheme.hypergroup


# ---------------------------------------------------------------------------
# quotient schemes


class _UnionFind:
    def __init__(self, n: int):
        self.up = list(range(n))

    def find(self, x: int) -> int:
        while self.up[x] != x:
            self.up[x] = self.up[self.up[x]]
            x = self.up[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if rx > ry:
                rx, ry = ry, rx
            self.up[ry] = rx


class QuotientScheme:
    """Scheme on the blocks x T, plus the bookkeeping of the projection."""

    __slots__ = (
        "scheme",
        "parent",
        "modulus",
        "blocks",
        "block_of",
        "rel_class_of",
        "hyper_quotient",
    )

    def __init__(
        self,
        scheme: AssociationScheme,
        parent: AssociationScheme,
        modulus: SchemeClosedSubset,
        blocks: tuple[tuple[int, ...], ...],
        block_of: tuple[int, ...],
        rel_class_of: tuple[int, ...],
        hyper_quotient: QuotientHypergroup,
    ):
        self.scheme = scheme
        self.parent = parent
        self.modulus = modulus
        self.blocks = blocks
        self.block_of = block_of
        self.rel_class_of = rel_class_of
        self.hyper_quotient = hyper_quotient

    def __repr__(self) -> str:
        return (
            f"<QuotientScheme on {self.scheme.n_points} blocks, "
            f"rank {self.scheme.rank}>"
        )


def quotient_scheme(
    scheme: AssociationScheme, modulus: SchemeClosedSubset
) -> QuotientScheme:
    """Quotient by a closed relation set T.

    Points are merged along edges whose relation lies in T (union-find),
    quotient relations are the double cosets T s T, and the valency law
    n_{s^T} * n_T = n_{TsT} is asserted exactly.  The hypergroup of the
    quotient scheme must coincide with the quotient of the hypergroup,
    table for table; anything else is an internal inconsistency.
    """
    if modulus.scheme is not scheme:
        raise ParentMismatchError("modulus belongs to a different scheme")
    hg = scheme.hypergroup
    hq = quotient(hg, modulus.subset)

    n = scheme.n_points
    uf = _UnionFind(n)
    t_bits = modulus.bits
    for x in range(n):
        rel_x = scheme.rel[x]
        for y in range(x + 1, n):
            if t_bits >> rel_x[y] & 1:
                uf.union(x, y)

    roots: list[int] = []
    block_index: dict[int, int] = {}
    block_of = [0] * n
    members: list[list[int]] = []
    for x in range(n):
        r = uf.find(x)
        if r not in block_index:
            block_index[r] = len(roots)
            roots.append(r)
            members.append([])
        b = block_index[r]
        block_of[x] = b
        members[b].append(x)

    if any(len(m) != modulus.valency for m in members):
        raise InternalInconsistencyError(
            "blocks of a closed subset must all have size n_T"
        )

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
                raise InternalInconsistencyError(
                    "block pair met two different relation cosets"
                )

    qscheme = validate_scheme(qrel, name=f"{scheme.name}//T" if scheme.name else "")

    if qscheme.hypergroup.table != hq.table or qscheme.hypergroup.inverse != hq.inverse:
        raise InternalInconsistencyError(
            "hypergroup of the quotient scheme differs from the quotient "
            "of the hypergroup"
        )

    n_t = modulus.valency
    for s in range(scheme.rank):
        c = hq.coset_of[s]
        coset_valency = scheme.valency_of_mask(hq.cosets[c])
        if qscheme.valencies[c] * n_t != coset_valency:
            raise InternalInconsistencyError(
                f"valency law fails at relation {s}: "
                f"{qscheme.valencies[c]} * {n_t} != {coset_valency}"
            )

    return QuotientScheme(
        qscheme,
        scheme,
        modulus,
        tuple(tuple(m) for m in members),
        tuple(block_of),
        tuple(hq.coset_of),
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


def is_pi_valenced(scheme: AssociationScheme, pi: Iterable[int]) -> bool:
    """True when every relation valency of the scheme is a pi-number."""
    ps = validate_pi(pi)
    return all(is_pi_number(v, ps) for v in scheme.valencies)


def pi_predicates(
    scheme: AssociationScheme, subset: SchemeClosedSubset, pi: Iterable[int]
) -> PiPredicates:
    ps = validate_pi(pi)
    if subset.scheme is not scheme:
        raise ParentMismatchError("subset belongs to a different scheme")
    valenced = all(is_pi_number(scheme.valencies[s], ps) for s in subset.members())
    closed_pi = valenced and is_pi_number(subset.valency, ps)
    n_total = scheme.n_points
    index = n_total // subset.valency
    if subset.valency * index != n_total:
        raise InternalInconsistencyError("closed subset valency must divide n")
    hall = closed_pi and (index == 1 or all(p not in ps for p in prime_factors(index)))
    return PiPredicates(valenced, closed_pi, hall)


def conjugate_subset(
    scheme: AssociationScheme, subset: SchemeClosedSubset, s: int
) -> ElementSubset:
    """The relation set s^ T s.  One-sided; not assumed closed."""
    hg = scheme.hypergroup
    mask = hg.mul_masks(hg.mul_masks(1 << hg.inverse[s], subset.bits), 1 << s)
    return ElementSubset(hg, mask)


def conjugators(
    scheme: AssociationScheme, t: SchemeClosedSubset, u: SchemeClosedSubset
) -> tuple[int, ...]:
    """All relations s with s^ T s = U, checked one-sided only.

    Swapping the arguments answers the other direction; nothing here
    assumes the two agree.
    """
    return tuple(
        s
        for s in range(scheme.rank)
        if conjugate_subset(scheme, t, s).bits == u.bits
    )


# ---------------------------------------------------------------------------
# solvability at the scheme level


class SchemeSolvableChain:
    __slots__ = ("subsets", "step_primes")

    def __init__(
        self,
        subsets: tuple[SchemeClosedSubset, ...],
        step_primes: tuple[int, ...],
    ):
        self.subsets = subsets
        self.step_primes = step_primes

    def __repr__(self) -> str:
        vals = " < ".join(str(c.valency) for c in self.subsets)
        return f"<SchemeSolvableChain valencies {vals}>"


def solvable_chain_scheme(scheme: AssociationScheme) -> SchemeSolvableChain | None:
    """Chain of closed subsets with strongly normal prime-index steps.

    The cached solvable chain of the induced hypergroup, read as closed
    relation sets.  Each of its steps is strongly normal with a prime
    number of double cosets, and for a strongly normal step that number
    is the valency index; the valency index is checked against the step
    prime on every call.
    """
    chain = solvable_chain(scheme.hypergroup)
    if chain is None:
        return None
    subsets = tuple(SchemeClosedSubset(scheme, c) for c in chain.subsets)
    for lo, hi, p in zip(subsets, subsets[1:], chain.step_primes):
        if hi.valency != lo.valency * p:
            raise InternalInconsistencyError(
                f"valency index {hi.valency}/{lo.valency} of a solvable step "
                f"is not its prime {p}"
            )
    return SchemeSolvableChain(subsets, chain.step_primes)


def is_solvable_scheme(scheme: AssociationScheme) -> bool:
    return solvable_chain_scheme(scheme) is not None
