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
set of relations is a ClosedSubset of it.  Each door that builds a
scheme proves that hypergroup, or takes it proved, and hands it to
AssociationScheme with the matrix: validate_scheme, from_group and
quotient_scheme, which returns the quotient scheme S//T on the blocks
of a closed subset T, an AssociationScheme whose hypergroup is the
QuotientHypergroup of T.  Nothing is set on a scheme after it is built.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain, compress
from operator import add
from typing import Any, NoReturn

from .arith import is_pi_number, pi_part, prime_factors, validate_pi
from .errors import (
    IdentityViolationError,
    InternalInconsistencyError,
    NotAGroupError,
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
    _prove,
    enumerate_closed_subsets,
)
from .quotient import _coset_partition, _quotient
from .solvability import SolvableChain, is_solvable, solvable_chain

__all__ = [
    "AssociationScheme",
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

Matrix = tuple[tuple[int, ...], ...]


class AssociationScheme:
    """A validated association scheme, built whole by the door that
    proved it: validate_scheme, from_group or quotient_scheme.  It holds
    the relation matrix rel, which the matrix doors read, beside the
    relation hypergroup, which the engine reads; rank, star_map and
    valencies are read off that hypergroup, which carries the valencies
    and was proved to satisfy H1-H3 before it was handed over."""

    def __init__(self, rel: Matrix, hypergroup: Hypergroup, name: str = ""):
        self.rel = rel
        self.n_points = len(rel)
        self.hypergroup = hypergroup
        self.rank = hypergroup.size
        self.star_map = hypergroup.inverse
        self.valencies = hypergroup.valencies
        self.name = name
        # one _PiFacts record by pi & primes, see _pi_facts
        self._pi_facts: dict[frozenset[int], _PiFacts] = {}

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<AssociationScheme{tag} on {self.n_points} points, rank {self.rank}>"

    @cached_property
    def primes(self) -> frozenset[int]:
        """Primes dividing n or some valency; no other prime matters to pi.
        Each distinct value is factored once."""
        return frozenset(p for k in {self.n_points, *self._valency_masks} for p in prime_factors(k))

    @cached_property
    def _valency_masks(self) -> dict[int, int]:
        """The mask of the relations of each valency, by valency: one
        entry for a group scheme, whose valencies are all 1."""
        masks: dict[int, int] = {}
        for s, v in enumerate(self.valencies):
            masks[v] = masks.get(v, 0) | 1 << s
        return masks

    def intersection_numbers(self, r: int) -> tuple[tuple[int, ...], ...]:
        """table[p][q] = a_{pqr}, counted over the pair (0, z) of relation
        r in row 0; validation proved every pair of r gives this table."""
        if type(r) is not int or not 0 <= r < self.rank:  # bool is an int subclass
            raise ValueError(f"relation {r} is out of range for rank {self.rank}")
        rel = self.rel
        return tuple(map(tuple, _count_table(rel, 0, rel[0].index(r), self.rank)))

    def closed_subset(self, relations: Iterable[int] | int) -> ClosedSubset:
        return ClosedSubset(self.hypergroup, relations)

    def closed_subsets(self) -> tuple[ClosedSubset, ...]:
        """Every closed relation set: enumerate_closed_subsets of the hypergroup, cached there."""
        return enumerate_closed_subsets(self.hypergroup)


# ---------------------------------------------------------------------------
# validation

# Largest n * rank**2 validate_scheme accepts.  The regularity pass
# sorts n pair codes for each of the n * (n + 1) / 2 + n - 1 pairs
# (y, z) with z = 0 or z >= y inside C builtins, about n**3 log n / 2
# steps, and keeps one key of n codes per relation while it runs; a
# thin input (rank n) costs n**2 steps plus validate_group.  The cap
# admits a thin scheme on 96 points (96 * 96**2 = 884,736) and every
# bundled input.
SCHEME_SIZE_CAP = 1 << 20


def validate_scheme(matrix: Sequence[Sequence[int]], name: str = "") -> AssociationScheme:
    """Check the scheme axioms on a relation matrix, then prove its
    relation hypergroup, and build the scheme on both.

    Errors, in the order the axioms are tested: NotSquareError,
    NotPartitionError (labels not a contiguous 0-based range),
    SchemeTooLargeError (n * rank**2 above SCHEME_SIZE_CAP, raised
    before the per-pair passes start), IdentityViolationError,
    StarViolationError and RegularityViolationError with a five-index
    witness.  The axioms give the relation hypergroup: relation 0 its
    neutral, the star map its inverse, and p q the relations r with
    a_{pqr} != 0.  _prove checks H1-H3 on it, whose H2 and H3 checks
    confirm the neutral and the inverse, the inverse being unique once
    H3 holds; a failure raises InternalInconsistencyError, as the axioms
    imply them.

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
    every row's label counts, so column 0 meets every relation).  Only
    when two keys differ is every pair keyed, in row-major order, and the
    first differing pair's two count tables run, to name the witness
    the pairwise loops would.  Valencies are the label counts of row 0,
    and the relation products come from the distinct codes of each key;
    no intersection number is stored (AssociationScheme.intersection_numbers
    counts them on demand).  Cost: n * (n + 1) / 2 + n - 1 keys, about
    n**3 log n / 2 steps in C plus n**2 / 2 in Python.  An input of rank
    n is thin: _group_scheme proves it a group's scheme, in n**2 steps
    plus the group proof, which is its hypergroup's proof, and only a
    refused one is keyed, row-major.
    """
    rel, cols, star = _scheme_rows(matrix)
    rank = len(star)
    if rank == len(rel):  # every valency is 1
        scheme = _group_scheme(rel, name)
        if scheme is not None:
            return scheme
    # a thin input the group proof refused is keyed row-major at once
    valencies, table = _relation_products(rel, cols, rank, upper=rank != len(rel))
    hg = Hypergroup(table, star, name=name or "scheme relations", valencies=valencies)
    try:
        _prove(hg, table, star)
    except Exception as exc:
        raise InternalInconsistencyError(
            f"relations of a valid scheme must form a hypergroup: {exc}"
        ) from exc
    return AssociationScheme(rel, hg, name)


def _scheme_rows(matrix: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, tuple[int, ...]]:
    """The rows, the columns and the star map of a matrix that passes
    every axiom validate_scheme tests before regularity, raising its
    errors in its order."""
    n = len(matrix)
    if n == 0:
        raise NotPartitionError("empty matrix")
    for x, row in enumerate(matrix):
        if len(row) != n:
            raise NotSquareError(f"row {x} has length {len(row)}, expected {n}")
    rel = tuple(map(tuple, matrix))

    labels = set(chain.from_iterable(rel))
    # the type of every entry: the set keeps one of the equal 1, 1.0 and True
    if set(map(type, chain.from_iterable(rel))) != {int} or min(labels) < 0:
        raise NotPartitionError("relation labels must be non-negative integers")
    rank = max(labels) + 1
    missing = set(range(rank)) - labels
    if missing:
        raise NotPartitionError(f"labels must form a contiguous range; missing {sorted(missing)}")
    _check_size(n, rank)

    cols = tuple(zip(*rel))
    for x, row in enumerate(rel):
        if row[x] != 0 or row.count(0) != 1:
            _raise_identity_witness(rel, x)

    # rel[x][y] meets rel[y][x] = cols[x][y]; each relation has one
    # partner exactly when there are rank distinct pairs
    pairs = set(zip(chain.from_iterable(rel), chain.from_iterable(cols)))
    if len(pairs) != rank:
        _raise_star_witness(rel)
    # one pair per label, and (t, s) is a pair with (s, t): star is an involution
    return rel, cols, tuple(map(dict(pairs).__getitem__, range(rank)))


def _relation_products(
    rel: Matrix, cols: Matrix, rank: int, upper: bool
) -> tuple[tuple[int, ...], Matrix]:
    """The valencies and the product table of a matrix whose other
    axioms hold, read off _pair_keys, which raises
    RegularityViolationError when it is not regular."""
    keys = _pair_keys(rel, cols, rank, upper)

    # row 0 meets every relation, and regularity of relation 0 makes
    # every row's label counts equal: these are the a_{s s* 0}
    valencies = tuple(map(rel[0].count, range(rank)))

    # p q holds r exactly when code rank*p + q occurs in the key of r
    products = [[0] * rank for _ in range(rank)]
    for r, key in enumerate(keys):
        for p, q in (divmod(c, rank) for c in set(key)):
            products[p][q] |= 1 << r
    return valencies, tuple(map(tuple, products))


def _check_size(n: int, rank: int) -> None:
    """Raise SchemeTooLargeError when n * rank**2 is above SCHEME_SIZE_CAP."""
    if n * rank * rank > SCHEME_SIZE_CAP:
        raise SchemeTooLargeError(
            f"{n} points of rank {rank} give n * rank**2 = {n * rank * rank}, "
            f"above the cap {SCHEME_SIZE_CAP}"
        )


def _pair_keys(rel: Matrix, cols: Matrix, rank: int, upper: bool) -> list[list[int]]:
    """The key of each relation's first pair (y, z), each later pair's
    key compared with it.  With upper, only the pairs with z = 0 or
    z >= y are keyed, and a differing key starts the keys over without
    upper; otherwise every pair is, in row-major order, and as a key
    lists the codes rank*p + q, so fixes its count table, a differing
    key raises the RegularityViolationError its two count tables name.
    """
    n = len(rel)
    keys: list[list[int] | None] = [None] * rank
    first: list[tuple[int, int]] = [(0, 0)] * rank
    for y, row in enumerate(rel):
        codes = [rank * p for p in row]
        for z in (0, *range(y, n)) if upper and y else range(n):
            r = row[z]
            key = sorted(map(add, codes, cols[z]))
            known = keys[r]
            if known is None:
                keys[r] = key
                first[r] = (y, z)
            elif known != key:
                if upper:
                    return _pair_keys(rel, cols, rank, upper=False)
                want = _count_table(rel, *first[r], rank)
                got = _count_table(rel, y, z, rank)
                for p in range(rank):
                    for q in range(rank):
                        if want[p][q] != got[p][q]:
                            raise RegularityViolationError(p, q, r, y, z)
    return keys


def _group_scheme(rel: Matrix, name: str) -> AssociationScheme | None:
    """A matrix of rank n as a group's thin scheme, or None when a row
    repeats a label or the table the rows give is not a group.  Point x
    stands for g_x = rel[0][x], and row x reads g_x rel[x][z] = g_z; once
    thin_hypergroup's group proof accepts that table, rel[x][z] =
    g_x^-1 g_z, so relation g is the pairs (x, y) with y = xg, and the
    group's thin hypergroup, proved by that proof and carrying valency 1
    on each relation, is the input's relation hypergroup."""
    n = len(rel)
    rel0 = rel[0]
    table: list[tuple[int, ...]] = [()] * n
    for x, row in enumerate(rel):
        at = dict(zip(row, rel0))  # at[rel[x][z]] = rel[0][z]
        if len(at) != n:
            return None
        table[rel0[x]] = tuple(map(at.__getitem__, range(n)))
    try:
        hg = thin_hypergroup(table, name=name or "scheme relations")
    except NotAGroupError:
        return None
    return AssociationScheme(rel, hg, name)


def _count_table(rel: Sequence[Sequence[int]], y: int, z: int, rank: int) -> list[list[int]]:
    """counts[p][q] = |{x : rel(y, x) = p and rel(x, z) = q}|, one pass over x."""
    counts = [[0] * rank for _ in range(rank)]
    rel_y = rel[y]
    for x in range(len(rel)):
        counts[rel_y[x]][rel[x][z]] += 1
    return counts


def _raise_identity_witness(rel: Sequence[Sequence[int]], x: int) -> NoReturn:
    """Row x holds 0 off the diagonal or not on it: name the diagonal
    first, then the first y != x with rel[x][y] = 0, which a row with 0
    on the diagonal but not once has."""
    if rel[x][x] != 0:
        raise IdentityViolationError(x, x, f"diagonal entry ({x}, {x}) is not 0")
    raise IdentityViolationError(x, next(y for y, r in enumerate(rel[x]) if r == 0 and y != x))


def _raise_star_witness(rel: Sequence[Sequence[int]]) -> NoReturn:
    """Some relation meets two partners, as there are more pairs than
    relations: name the first pair, in row-major order, that contradicts
    the partner seen before it."""
    star: dict[int, int] = {}
    s, t, x, y = next(
        (s, rel[y][x], x, y)
        for x, row in enumerate(rel)
        for y, s in enumerate(row)
        if star.setdefault(s, rel[y][x]) != rel[y][x]
    )
    raise StarViolationError(f"relation {s} pairs with both {star[s]} and {t}, seen at ({x}, {y})")


def from_group(table: Sequence[Sequence[int]], name: str = "") -> AssociationScheme:
    """The thin scheme of a group: (x, y) lies in relation g when y = xg.
    It has rank n, so the size cap is applied before the group checks.
    Its hypergroup comes from groups.thin_hypergroup, the one builder of a
    group's thin hypergroup, whose proof of the group axioms is its proof
    of H1-H3, with relation 0 as its neutral and the star map as its
    inverse; it carries valency 1 on every relation.  Once the table is a
    group the scheme axioms hold by construction: relation g has valency
    1 and partner g^-1, and relation p then q is relation pq.  The
    relation matrix is read off the input rows that thin_hypergroup has
    just validated."""
    _check_size(len(table), len(table))
    hg = thin_hypergroup(table, name=name or "scheme relations")
    rel = tuple(tuple(table[i]) for i in hg.inverse)  # row x is row x^-1 of the table
    return AssociationScheme(rel, hg, name)


# ---------------------------------------------------------------------------
# products of schemes


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


def quotient_scheme(scheme: AssociationScheme, modulus: ClosedSubset) -> AssociationScheme:
    """The quotient scheme S//T by a closed relation set T.

    T is closed, so "rel(x, y) lies in T" is an equivalence relation
    (reflexive as 0 is in T, symmetric as T* = T, transitive as TT is
    inside T), whose classes, the blocks, are disjoint.  Point i of S//T
    is the i-th block in order of least point, and only the rows of
    those least points are read: a point that no earlier block holds is
    the least of its own block, whose points are read off its row.
    Block pair (i, j) is labelled by the double coset holding rel(a, b)
    for their least points a and b, by its index in the coset partition
    that quotient(scheme.hypergroup, T) uses, built once, so relation i
    of S//T is the i-th double coset T s T.  One pair per block pair is
    enough, as validation proved the scheme: for x in block i and y in
    block j, the path x a b y puts rel(x, y) in T rel(a, b) T, since
    p q holds every r with a_pq^r != 0.  Every row holds n_s points of
    label s, so each block holds n_T points, and row 0 meets
    n_{TsT} / n_T blocks of label T s T: the valency law
    n_{s^T} * n_T = n_{TsT} holds as built.  Cost: n * k + k**2 reads
    of rel for k blocks.

    The block matrix passes validate_scheme's axiom checks, and its
    valencies and that partition are given to the hypergroup quotient as
    quotient._quotient builds it, which then proves H1-H3 on it; the
    block matrix's products and star map must be that hypergroup's table
    and inverse, so they are compared, not proved again: that
    QuotientHypergroup, with its parent, modulus, cosets and coset_of,
    is the returned scheme's hypergroup.  A failure past the axiom
    checks raises InternalInconsistencyError.
    """
    hg = _own_subset(scheme, modulus, "modulus")
    partition = _coset_partition(hg, hg.full_mask, modulus)
    coset_of = partition[1]

    rel = scheme.rel
    in_t = [bool(modulus.bits >> s & 1) for s in range(scheme.rank)]
    points = range(scheme.n_points)
    reps: list[int] = []  # the least point of each block
    covered: set[int] = set()
    for x in points:
        if x not in covered:
            reps.append(x)
            covered.update(compress(points, map(in_t.__getitem__, rel[x])))
    qrel = [[coset_of[row[b]] for b in reps] for row in map(rel.__getitem__, reps)]

    rows, cols, star = _scheme_rows(qrel)
    valencies, table = _relation_products(rows, cols, len(star), upper=True)
    name = f"{hg.name}//{modulus.members()}"
    hq = _quotient(hg, hg.full_mask, modulus, name, valencies, partition)
    if table != hq.table or star != hq.inverse:
        raise InternalInconsistencyError(
            "hypergroup of the quotient scheme differs from the quotient "
            "of the hypergroup"
        )
    return AssociationScheme(rows, hq, f"{scheme.name}//T" if scheme.name else "")


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


class _PiFacts:
    """What depends only on a scheme and a validated pi, ps: valenced,
    the mask of the relations whose valency is a ps-number, and target,
    the ps-part of n, set here; and two fields schemehall.hall sets on
    first success and never after, family, what all_hall_subsets
    returns, and context, the Hall context.  An error leaves them None.
    The mask is the union of the scheme's masks by valency over the
    valencies that are ps-numbers, so each distinct valency is tested
    once and no relation is read."""

    __slots__ = ("valenced", "target", "family", "context")

    def __init__(self, scheme: AssociationScheme, ps: frozenset[int]):
        self.valenced = sum(m for v, m in scheme._valency_masks.items() if is_pi_number(v, ps))
        self.target = pi_part(scheme.n_points, ps)
        self.family: tuple[ClosedSubset, ...] | None = None
        self.context: Any = None


def _pi_facts(scheme: AssociationScheme, ps: frozenset[int]) -> _PiFacts:
    """The scheme's pi-record for a validated ps, one per scheme and
    ps & scheme.primes, as no other prime changes an entry.  Found under
    ps, which spares a warm query the intersection, then under
    ps & scheme.primes, and built there with ps on a miss; nothing is
    stored under any other key."""
    facts = scheme._pi_facts.get(ps)
    if facts is None:
        key = ps & scheme.primes
        facts = scheme._pi_facts.get(key)
        if facts is None:
            facts = scheme._pi_facts[key] = _PiFacts(scheme, ps)
    return facts


def is_pi_valenced(scheme: AssociationScheme, pi: Iterable[int]) -> bool:
    """True when every relation valency of the scheme is a pi-number."""
    return _pi_facts(scheme, validate_pi(pi)).valenced == (1 << scheme.rank) - 1


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
    """Whether subset is pi-valenced, a closed pi-subset and a Hall
    pi-subset, read off its relations and its valency; it is closed, as
    every ClosedSubset is."""
    _own_subset(scheme, subset)
    facts = _pi_facts(scheme, validate_pi(pi))
    closed_pi, hall = _pi_tests(subset, facts.valenced, facts.target)
    return PiPredicates(subset.bits & ~facts.valenced == 0, closed_pi, hall)


def _pi_tests(subset: ClosedSubset, valenced: int, target: int) -> tuple[bool, bool]:
    """(closed pi-subset, Hall pi-subset) for a closed subset of a
    scheme's hypergroup, from the mask of the pi-valenced relations and
    target, the pi-part of n.  Its valency v divides n, as its classes
    partition the points, so v is a pi-number exactly when it divides
    target, and then the index n / v is a pi'-number too exactly when v
    is target."""
    v = subset.valency
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
