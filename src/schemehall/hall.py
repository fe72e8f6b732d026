"""Hall subsets of solvable schemes with bounded valency primes.

The route goes through one group per scheme: G = S // O^θ(S), the
quotient by the thin residue, which the residue series that decides
solvability builds and checks thin once.  For each pi the Hall
pi-subgroups of G are found by the classical route and lifted back
through the closed-subset correspondence; the pi-core is the lift of
O_pi(G), their intersection.  That structure is built once per (scheme,
pi) and cached on the scheme, and each of its facts has one check.  A
core from O_pi(G) = 1 is the residue modulus, checked closed by
quotient._quotient and strongly normal by is_thin once per scheme in
the residue series; one from O_pi(G) = G is the whole scheme.  Any
other core is lifted by quotient._lift, which checks the lift closed,
as no filter stands behind it, and is checked strongly normal by
conjugating it with a generating set alone, which each hypergroup
builds once.  G is solvable by the residue series.  Each lifted Hall
subset is the plain sum of the cosets its subgroup names, and the
family must equal an exhaustive filter over every closed pi-subset,
read off the cached lattice when the hypergroup has one; as the filter keeps only closed subsets passing the Hall
predicate, that equality proves each lift closed and Hall.  After it,
the family is certified conjugate: for each lifted Hall subset after the first, the
quotient group's conjugator must have a relation in its coset that
conjugates the first onto it.  Queries read Hall subsets and their
subgroups off that family: extend_to_hall answers with the first lifted
Hall subset that contains its seed.  A query re-checks only its inputs:
a mask test on each, and conjugating_element's scan, which stops at the
least relation that conjugates.  That scan, both certificate steps (the
conjugator in G and its coset) and scheme.conjugators all read one
search, hypergroup._conjugators.  G is held as the thin hypergroup the
residue series built, so its derived series and its Hall subgroups are
joined by its own closure_mask and conjugated by the kernel S uses; only
validation reads a Cayley index table, and none is kept: a certificate
carries G as that hypergroup.
"""
from __future__ import annotations

from collections.abc import Iterable
from functools import reduce
from operator import and_

from .arith import format_pi, is_pi_number, pi_part, validate_pi
from .errors import (
    InternalInconsistencyError,
    NoConjugatorFoundError,
    NotClosedPiSubsetError,
    NotHallError,
    NotPiValencedError,
    NotSolvableError,
    NotSolvableGroupError,
)
from .groups import Table, is_solvable_group, thin_hypergroup
from .hypergroup import (
    ClosedSubset,
    Hypergroup,
    _conjugates,
    _conjugators,
    _enumerate_closed,
    _thin_index_table,
    bits_of,
    is_strongly_normal,
)
from .quotient import QuotientHypergroup, _lift
from .scheme import (
    AssociationScheme,
    _own_subset,
    _pi_tests,
    _pi_valenced_mask,
)
from .solvability import _residue_series

__all__ = [
    "HallCertificate",
    "compute_o_pi",
    "group_from_thin",
    "hall_subgroups",
    "all_hall_subsets",
    "find_hall",
    "conjugating_element",
    "extend_to_hall",
]


class HallCertificate:
    """Everything find_hall and extend_to_hall establish, in one record.

    hall is the closed subset of scheme.hypergroup itself and o_pi the
    pi-core inside it; each carries its valency.
    The other two fields refer to the quotient by the thin residue,
    S // O^θ(S), not to the quotient by o_pi: hyper_quotient is that
    quotient hypergroup, the group G as a thin hypergroup, and
    lifted_subgroup the Hall subgroup of G (a bitmask over quotient
    elements) whose lift is hall.  The thin quotient by o_pi has order
    n // o_pi.valency.
    """

    __slots__ = (
        "pi",
        "scheme",
        "hall",
        "o_pi",
        "lifted_subgroup",
        "hyper_quotient",
    )

    def __init__(
        self,
        pi: frozenset[int],
        scheme: AssociationScheme,
        hall: ClosedSubset,
        o_pi: ClosedSubset,
        lifted_subgroup: int,
        hyper_quotient: QuotientHypergroup,
    ):
        self.pi = pi
        self.scheme = scheme
        self.hall = hall
        self.o_pi = o_pi
        self.lifted_subgroup = lifted_subgroup
        self.hyper_quotient = hyper_quotient

    @property
    def index(self) -> int:
        return self.scheme.n_points // self.hall.valency

    def __repr__(self) -> str:
        return (
            f"<HallCertificate pi={format_pi(self.pi)} "
            f"n_T={self.hall.valency} index={self.index}>"
        )


def _core_and_halls(
    scheme: AssociationScheme, ps: frozenset[int], valenced: int
) -> tuple[QuotientHypergroup, tuple[int, ...], ClosedSubset]:
    """The Hall structure of (scheme, ps), built once: the quotient
    G = S // O^θ(S), that group's Hall ps-subgroups and the pi-core
    lifted from their intersection, O_pi(G).  valenced masks the
    ps-valenced relations.  Raises NotPiValencedError naming the first
    relation that fails, then NotSolvableError.  A core from a trivial
    O_pi(G) is the residue modulus, which the residue series checked
    closed and strongly normal once per scheme, and one from O_pi(G) = G
    the whole scheme; any other is checked closed by _lift and strongly
    normal by conjugation, rather than trusted."""
    missing = ~valenced & ((1 << scheme.rank) - 1)
    if missing:
        s = (missing & -missing).bit_length() - 1  # the first relation that fails
        raise NotPiValencedError(
            f"scheme is not {format_pi(ps)}-valenced: "
            f"relation {s} has valency {scheme.valencies[s]}"
        )
    series = _residue_series(scheme.hypergroup)
    if series is None:
        raise NotSolvableError(
            "scheme admits no chain of strongly normal closed subsets "
            "with prime valency indices"
        )
    hq = series[0]
    halls = _hall_subgroups(hq, ps)
    meet = reduce(and_, halls)
    if meet == 1:
        core = ClosedSubset(scheme.hypergroup, hq.modulus.bits)
    elif meet == hq.full_mask:
        core = scheme.hypergroup.universe()
    else:
        core = _lift(hq, meet)
        if not is_strongly_normal(core, scheme.hypergroup.universe()):
            raise InternalInconsistencyError("the pi-core must be strongly normal")
    return hq, halls, core


def compute_o_pi(scheme: AssociationScheme, pi: Iterable[int]) -> ClosedSubset:
    """The pi-core, the largest subnormal closed pi-subset: being strongly
    normal, it is the lift of O_pi(G) for G = S // O^θ(S), the
    intersection of the Hall pi-subgroups of G.  Each call builds that
    structure afresh through the residue series, walking no lattice;
    Hall queries read the core off their cached context instead."""
    ps = validate_pi(pi)
    return _core_and_halls(scheme, ps, _pi_valenced_mask(scheme, ps))[2]


def group_from_thin(hg: Hypergroup) -> Table:
    """Read a thin hypergroup off as a Cayley table, checking only thinness:
    validate_hypergroup built hg, checking H1-H3 with the neutral put at 0.
    The table of element indices is read afresh on each call, as no
    hypergroup keeps one.  No library code calls this: the library
    computes on the thin hypergroup itself."""
    t = _thin_index_table(hg.table)
    if t is None:
        p, q = next(
            (p, q) for p, row in enumerate(hg.table) for q, m in enumerate(row) if m & (m - 1)
        )
        raise InternalInconsistencyError(
            f"product {p} * {q} is not a single element; hypergroup is not thin"
        )
    return t


def hall_subgroups(table: Table, pi: Iterable[int]) -> tuple[int, ...]:
    """All subgroups whose order is the pi-part of the group order.

    Subgroup bitmasks, ordered by member tuple.  The group must be
    solvable, which is checked on the validated table's thin hypergroup:
    its derived series must reach the trivial subgroup.  One Hall
    subgroup is built greedily from the trivial one: join the first
    element (in index order) whose generated subgroup is still a
    pi-group, until the order is the pi-part.  In a solvable group
    every pi-subgroup lies in a Hall pi-subgroup and all Hall
    pi-subgroups are conjugate (P. Hall 1928), so the build never stalls
    and the conjugation orbit of its result is the whole family.  The
    build is one pass over the elements and the orbit is taken over a
    right transversal of the result: see _hall_subgroups.
    """
    ps = validate_pi(pi)
    hg = thin_hypergroup(table)
    if not is_solvable_group(hg):
        raise NotSolvableGroupError(f"group of order {hg.size} is not solvable")
    return _hall_subgroups(hg, ps)


def _hall_subgroups(hg: Hypergroup, ps: frozenset[int]) -> tuple[int, ...]:
    """hall_subgroups on a solvable group held as a thin hypergroup, as
    checked by hall_subgroups or the residue series.  Joins are closures,
    right cosets mul_masks products and conjugates hypergroup._conjugates.
    A pi-part of 1 or n leaves the trivial subgroup or G the one Hall
    subgroup, returned with no search.

    The greedy build makes one pass over the elements and joins the same
    ones as restarting at element 1 after each join: a g that failed to
    join H fails to join every later H' containing H, as <H', g> holds
    <H, g>, whose order has a prime outside pi.  The orbit conjugates by
    the least element of each right coset Hg, |G : H| conjugations, as
    g^-1 H g depends only on the coset: (hg)^-1 H (hg) = g^-1 H g.
    """
    n = hg.size
    target = pi_part(n, ps)
    if target in (1, n):
        return (hg.full_mask if target == n else 1,)
    hall = 1
    for g in range(1, n):
        if hall.bit_count() == target:
            break
        if hall >> g & 1:
            continue
        ext = hg.closure_mask(hall | 1 << g)
        if is_pi_number(ext.bit_count(), ps):
            hall = ext
    if hall.bit_count() != target:
        raise InternalInconsistencyError(
            f"no pi-subgroup of a solvable group of order {n} grows "
            f"past order {hall.bit_count()} towards {target}"
        )
    reps = covered = 0
    for g in range(n):
        if not covered >> g & 1:
            reps |= 1 << g
            covered |= hg.mul_masks(hall, 1 << g)
    return tuple(sorted({conj for _, conj in _conjugates(hg, hall, reps)}, key=bits_of))


def all_hall_subsets(scheme: AssociationScheme, pi: Iterable[int]) -> tuple[ClosedSubset, ...]:
    """Exhaustive filter: every closed pi-subset passing the Hall
    predicate, in closed_subsets order.

    A Hall subset is pi-valenced with the pi-part of n as its valency
    (scheme._pi_tests), so when that is n or 1 the one candidate is the
    full set or {0}, given its valency.  Otherwise the candidates are
    the hypergroup's cached lattice if it has one, else the closed
    pi-subsets alone: a closed subset of a closed pi-subset is one too
    (for closed C inside D, n_C divides n_D), so the closed subset walk
    narrowed to them finds them without the rest of the lattice, and
    each kept subset is handed the valency the walk summed.
    """
    ps = validate_pi(pi)
    hg = scheme.hypergroup
    n = scheme.n_points
    valenced, target = _pi_valenced_mask(scheme, ps), pi_part(n, ps)
    if target == n:
        candidates = (ClosedSubset(hg, hg.full_mask, n),)
    elif target == 1:
        candidates = (ClosedSubset(hg, 1, 1),)
    elif hg._closed is not None:
        candidates = hg._closed
    else:
        valency: dict[int, int] = {}  # by mask, for each mask closed_pi summed

        def closed_pi(mask: int) -> bool:
            if mask & ~valenced:
                return False
            v = valency[mask] = hg.valency_of_mask(mask)
            return is_pi_number(v, ps)

        candidates = _enumerate_closed(hg, closed_pi)
        for c in candidates:
            c.valency = valency[c.bits]
    return tuple(t for t in candidates if _pi_tests(scheme, t, valenced, target)[1])


class _HallContext:
    """The Hall structure of one (scheme, pi), built and checked once.

    valenced masks the pi-valenced relations and target is the pi-part
    of n, for the queries' tests.  core is the pi-core and hq the
    quotient by the thin residue, shared by every pi, the group G as a
    thin hypergroup.  halls are the Hall subgroups of hq in hall_subgroups
    order and lifted[i] the sum of the cosets halls[i] names, given the
    valency target.  No lift is checked on its own: the family equals
    all_hall_subsets, whose members are closed and Hall, which proves
    each lift closed, Hall and of that valency.  Only then is each
    certified conjugate to lifted[0] through the coset of a conjugator
    of halls[0] onto halls[i].  Only a core that is neither the residue
    modulus nor the whole scheme is checked closed by _lift, in
    _core_and_halls.  best indexes the least lifted Hall
    subset.  Every pi with the same primes among those of the scheme
    shares the context.
    """

    __slots__ = ("scheme", "valenced", "target", "core", "hq", "halls", "lifted", "best")

    def __init__(self, scheme: AssociationScheme, ps: frozenset[int]):
        self.scheme = scheme
        self.valenced, self.target = _pi_valenced_mask(scheme, ps), pi_part(scheme.n_points, ps)
        self.hq, self.halls, self.core = _core_and_halls(scheme, ps, self.valenced)
        hg, cosets = scheme.hypergroup, self.hq.cosets
        self.lifted = tuple(
            ClosedSubset(hg, sum(map(cosets.__getitem__, bits_of(gm))), self.target)
            for gm in self.halls
        )
        filtered = all_hall_subsets(scheme, ps)
        if {t.bits for t in self.lifted} != {t.bits for t in filtered}:
            raise InternalInconsistencyError(
                "constructive Hall family differs from the exhaustive filter"
            )

        for gm, t in zip(self.halls[1:], self.lifted[1:]):
            g = next(_conjugators(self.hq, self.halls[0], gm, self.hq.full_mask), None)
            if g is None:
                raise InternalInconsistencyError(
                    "quotient group route found no conjugator although a direct "
                    "one exists"
                )
            if next(_conjugators(hg, self.lifted[0].bits, t.bits, cosets[g]), None) is None:
                raise InternalInconsistencyError(
                    "no member of the lifted conjugator coset conjugates the "
                    "subsets directly"
                )
        self.best = min(range(len(self.lifted)), key=lambda i: self.lifted[i].members())

    def certificate(self, i: int, ps: frozenset[int]) -> HallCertificate:
        """A fresh certificate for the i-th Hall subset, asked for pi = ps."""
        return HallCertificate(
            ps, self.scheme, self.lifted[i], self.core, self.halls[i], self.hq
        )


def _context(scheme: AssociationScheme, ps: frozenset[int]) -> _HallContext:
    """The cached Hall context of (scheme, ps), built on first use.

    Keyed by the primes of ps that divide n or a valency: no other
    prime changes an answer.  A missing context is built with ps itself,
    so error messages name the pi asked for; errors are not cached.
    """
    key = ps & scheme.primes
    ctx = scheme._hall_contexts.get(key)
    if ctx is None:
        ctx = scheme._hall_contexts[key] = _HallContext(scheme, ps)
    return ctx


def find_hall(scheme: AssociationScheme, pi: Iterable[int]) -> HallCertificate:
    """A Hall subset for pi, with its construction trail.

    Constructive route through the thin quotient group, verified once
    per (scheme, pi) against the exhaustive filter; the
    lexicographically least Hall subset is the one certified.  Each
    call returns a new certificate.
    """
    ps = validate_pi(pi)
    ctx = _context(scheme, ps)
    return ctx.certificate(ctx.best, ps)


def conjugating_element(
    scheme: AssociationScheme,
    t: ClosedSubset,
    u: ClosedSubset,
    pi: Iterable[int],
) -> int:
    """A relation conjugating one Hall subset onto another.

    Inputs are re-verified as Hall subsets and the conjugator is the
    first that _conjugators yields over every relation, the least valid
    relation index; the context certified at build that its Hall family
    is conjugate through the quotient group.
    """
    ps = validate_pi(pi)
    ctx = _context(scheme, ps)  # raises the precondition errors; certifies conjugacy once
    for label, x in (("first", t), ("second", u)):
        _own_subset(scheme, x)
        if not _pi_tests(scheme, x, ctx.valenced, ctx.target)[1]:
            raise NotHallError(
                f"{label} subset (relations {list(x.members())}, valency "
                f"{x.valency}) is not a Hall {format_pi(ps)}-subset"
            )

    s = next(_conjugators(scheme.hypergroup, t.bits, u.bits, scheme.hypergroup.full_mask), None)
    if s is None:
        raise NoConjugatorFoundError(
            "no relation conjugates the first Hall subset onto the second; "
            "conjugacy is guaranteed here, so this is an engine bug"
        )
    return s


def extend_to_hall(
    scheme: AssociationScheme,
    subset: ClosedSubset,
    pi: Iterable[int],
) -> HallCertificate:
    """Grow a closed pi-subset into a Hall subset containing it.

    Answers with the first lifted Hall subset, in hall_subgroups order,
    that contains the subset.  Each is closed and contains the core, the
    lift of the Hall subgroups' intersection, so this is the first one
    containing core * subset: the first Hall subgroup of the quotient
    group containing its image.
    """
    ps = validate_pi(pi)
    ctx = _context(scheme, ps)
    _own_subset(scheme, subset)
    if not _pi_tests(scheme, subset, ctx.valenced, ctx.target)[0]:
        raise NotClosedPiSubsetError(
            f"subset of valency {subset.valency} with relations "
            f"{list(subset.members())} is not a closed {format_pi(ps)}-subset"
        )
    chosen = next((i for i, h in enumerate(ctx.lifted) if subset.bits & ~h.bits == 0), None)
    if chosen is None:
        raise InternalInconsistencyError(
            f"no lifted Hall subset contains the closed subset with relations "
            f"{list(subset.members())}"
        )
    return ctx.certificate(chosen, ps)
