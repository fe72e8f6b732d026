"""Hall subsets of solvable schemes with bounded valency primes.

The route goes through one group per scheme: G = S // O^θ(S), the
quotient by the thin residue, which the residue series that decides
solvability builds and reads off as a group once.  For each pi the Hall
pi-subgroups of G are found by the classical route and lifted back
through the closed-subset correspondence; the pi-core is the lift of
O_pi(G), their intersection.  The Hall subgroups and their intersection
are subgroups of G by construction, so they are lifted by quotient._lift,
which skips lift_closed's check that its input is closed in G and keeps
the check that the lift is closed.  That structure is built and checked once
per (scheme, pi) and cached on the scheme: the core is strongly normal,
G is solvable, and the lifted family equals an exhaustive filter over
every closed pi-subset, read off the cached lattice when the hypergroup
has one; as the filter keeps only subsets passing the Hall predicate, that
equality also proves each lift Hall.  Queries read Hall subsets and their
subgroups off that family: extend_to_hall answers with the first lifted
Hall subset that contains its seed.  Conjugacy is certified at build
too: for each lifted Hall subset after the first, the quotient group's
conjugator must have a relation in its coset that conjugates the first
onto it.  A query re-checks only its inputs: the Hall predicate on each,
and conjugating_element's direct conjugator scan, which stops at the
least relation that conjugates.
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
from .groups import (
    Table,
    _conjugates,
    _right_transversal,
    find_subgroup_conjugator,
    generated_subgroup,
    is_solvable_group,
    validate_group,
)
from . import hypergroup
from .hypergroup import ClosedSubset, _enumerate_closed, bits_of, is_strongly_normal
from .quotient import QuotientHypergroup, _lift
from .scheme import (
    AssociationScheme,
    _first_conjugator,
    _own_subset,
    _pi_predicates,
    _pi_valenced_mask,
)
from .solvability import _residue_series, group_from_thin

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
    The other three fields refer to the quotient by the thin residue,
    S // O^θ(S), not to the quotient by o_pi: hyper_quotient is that
    quotient hypergroup, thin_quotient_group its Cayley table G, and
    lifted_subgroup the Hall subgroup of G (a bitmask over quotient
    elements) whose lift is hall.  The thin quotient by o_pi has order
    n // o_pi.valency.
    """

    __slots__ = (
        "pi",
        "scheme",
        "hall",
        "o_pi",
        "thin_quotient_group",
        "lifted_subgroup",
        "hyper_quotient",
    )

    def __init__(
        self,
        pi: frozenset[int],
        scheme: AssociationScheme,
        hall: ClosedSubset,
        o_pi: ClosedSubset,
        thin_quotient_group: Table,
        lifted_subgroup: int,
        hyper_quotient: QuotientHypergroup,
    ):
        self.pi = pi
        self.scheme = scheme
        self.hall = hall
        self.o_pi = o_pi
        self.thin_quotient_group = thin_quotient_group
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
    scheme: AssociationScheme, ps: frozenset[int]
) -> tuple[QuotientHypergroup, Table, tuple[int, ...], ClosedSubset]:
    """The Hall structure of (scheme, ps), built once: the quotient
    S // O^θ(S), its group table, that group's Hall ps-subgroups and
    the pi-core lifted from their intersection, O_pi(G).  Raises
    NotPiValencedError naming the first relation that fails, then
    NotSolvableError.  That the core is strongly normal is checked
    rather than trusted."""
    missing = ~_pi_valenced_mask(scheme, ps) & ((1 << scheme.rank) - 1)
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
    hq, table = series[0]
    halls = _hall_subgroups(table, ps)
    core = _lift(hq, reduce(and_, halls))
    if not is_strongly_normal(core, scheme.hypergroup.universe()):
        raise InternalInconsistencyError("the pi-core must be strongly normal")
    return hq, table, halls, core


def compute_o_pi(scheme: AssociationScheme, pi: Iterable[int]) -> ClosedSubset:
    """The pi-core, the largest subnormal closed pi-subset: being strongly
    normal, it is the lift of O_pi(G) for G = S // O^θ(S), the
    intersection of the Hall pi-subgroups of G.  Each call builds that
    structure afresh through the residue series, walking no lattice;
    Hall queries read the core off their cached context instead."""
    return _core_and_halls(scheme, validate_pi(pi))[3]


def hall_subgroups(table: Table, pi: Iterable[int]) -> tuple[int, ...]:
    """All subgroups whose order is the pi-part of the group order.

    Subgroup bitmasks, ordered by member tuple.  The group must be
    solvable, which is checked on the table itself: its derived series
    must reach the trivial subgroup.  One Hall subgroup is built
    greedily from the trivial one: join the first element (in index
    order) whose generated subgroup is still a pi-group, until the
    order is the pi-part.  In a solvable group every pi-subgroup lies
    in a Hall pi-subgroup and all Hall pi-subgroups are conjugate
    (P. Hall 1928), so the build never stalls and the conjugation orbit
    of its result is the whole family.  The build is one pass over the
    elements and the orbit is taken over a right transversal of the
    result: see _hall_subgroups.
    """
    ps = validate_pi(pi)
    t = validate_group(table)
    if not is_solvable_group(t):
        raise NotSolvableGroupError(f"group of order {len(t)} is not solvable")
    return _hall_subgroups(t, ps)


def _hall_subgroups(t: Table, ps: frozenset[int]) -> tuple[int, ...]:
    """hall_subgroups on a solvable table, as checked by hall_subgroups or the residue series.

    The greedy build makes one pass over the elements and joins the same
    ones as restarting at element 1 after each join: a g that failed to
    join H fails to join every later H' containing H, as <H', g> holds
    <H, g>, whose order has a prime outside pi.  The orbit conjugates by
    the least element of each right coset Hg, |G : H| conjugations, as
    g^-1 H g depends only on the coset: (hg)^-1 H (hg) = g^-1 H g.
    """
    n = len(t)
    target = pi_part(n, ps)
    hall = 1
    for g in range(1, n):
        if hall.bit_count() == target:
            break
        if hall >> g & 1:
            continue
        ext = generated_subgroup(t, hall | 1 << g)
        if is_pi_number(ext.bit_count(), ps):
            hall = ext
    if hall.bit_count() != target:
        raise InternalInconsistencyError(
            f"no pi-subgroup of a solvable group of order {n} grows "
            f"past order {hall.bit_count()} towards {target}"
        )
    return tuple(sorted(set(_conjugates(t, hall, _right_transversal(t, hall))), key=bits_of))


def all_hall_subsets(scheme: AssociationScheme, pi: Iterable[int]) -> tuple[ClosedSubset, ...]:
    """Exhaustive filter: every closed pi-subset passing the Hall
    predicate, in closed_subsets order.

    A Hall subset has the pi-part of n as its valency, so when that is
    n or 1 the one candidate is the full set or {0}, given its valency.
    Otherwise the candidates are the hypergroup's cached lattice if it
    has one, else the closed pi-subsets alone: a closed subset of a
    closed pi-subset is one too (for closed C inside D, n_C divides
    n_D), so the closed subset walk narrowed to them finds them without
    the rest of the lattice, and each kept subset is handed the valency
    the walk summed.
    """
    ps = validate_pi(pi)
    hg = scheme.hypergroup
    n = scheme.n_points
    target = pi_part(n, ps)
    if target == n:
        candidates = (ClosedSubset(hg, hg.full_mask, n),)
    elif target == 1:
        candidates = (ClosedSubset(hg, 1, 1),)
    elif hg._closed is not None:
        candidates = hg._closed
    else:
        valenced = _pi_valenced_mask(scheme, ps)
        valency: dict[int, int] = {}  # by mask, for each mask closed_pi summed

        def closed_pi(mask: int) -> bool:
            if mask & ~valenced:
                return False
            v = valency[mask] = hg.valency_of_mask(mask)
            return is_pi_number(v, ps)

        candidates = _enumerate_closed(hg, closed_pi)
        for c in candidates:
            c.valency = valency[c.bits]
    return tuple(t for t in candidates if _pi_predicates(scheme, t, ps).is_hall_pi_subset)


class _HallContext:
    """The Hall structure of one (scheme, pi), built and checked once.

    core is the pi-core, hq the quotient by the thin residue and gtable
    that quotient read off as a group, both shared by every pi; halls
    are the Hall subgroups of gtable in hall_subgroups order and
    lifted[i] the lift of halls[i], Hall as the family equals
    all_hall_subsets, and certified conjugate to lifted[0] through the
    coset of a conjugator of halls[0] onto halls[i].  best indexes the
    least lifted Hall subset.  Every pi with the same primes among those
    of the scheme shares the context.
    """

    __slots__ = ("scheme", "core", "hq", "gtable", "halls", "lifted", "best")

    def __init__(self, scheme: AssociationScheme, ps: frozenset[int]):
        self.scheme = scheme
        hq, self.gtable, self.halls, core = _core_and_halls(scheme, ps)
        self.hq, self.core = hq, core
        if len(self.halls) == 1:
            self.lifted = (core,)  # the one Hall subgroup is their intersection
        else:
            self.lifted = tuple(_lift(hq, gm) for gm in self.halls)
        for gm, t in zip(self.halls[1:], self.lifted[1:]):
            g = find_subgroup_conjugator(self.gtable, self.halls[0], gm)
            if g is None:
                raise InternalInconsistencyError(
                    "quotient group route found no conjugator although a direct "
                    "one exists"
                )
            within = hypergroup._conjugates(scheme.hypergroup, self.lifted[0].bits, hq.cosets[g])
            if not any(conj == t.bits for _, conj in within):
                raise InternalInconsistencyError(
                    "no member of the lifted conjugator coset conjugates the "
                    "subsets directly"
                )

        filtered = all_hall_subsets(scheme, ps)
        if {t.bits for t in self.lifted} != {t.bits for t in filtered}:
            raise InternalInconsistencyError(
                "constructive Hall family differs from the exhaustive filter"
            )
        self.best = min(range(len(self.lifted)), key=lambda i: self.lifted[i].members())

    def certificate(self, i: int, ps: frozenset[int]) -> HallCertificate:
        """A fresh certificate for the i-th Hall subset, asked for pi = ps."""
        return HallCertificate(
            ps, self.scheme, self.lifted[i], self.core, self.gtable, self.halls[i], self.hq
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

    Inputs are re-verified as Hall subsets and the conjugator is found
    by direct scan; the context certified at build that its Hall family
    is conjugate through the quotient group.  Returns the least valid
    relation index.
    """
    ps = validate_pi(pi)
    _context(scheme, ps)  # raises the precondition errors; certifies conjugacy once
    for label, x in (("first", t), ("second", u)):
        _own_subset(scheme, x)
        if not _pi_predicates(scheme, x, ps).is_hall_pi_subset:
            raise NotHallError(
                f"{label} subset (relations {list(x.members())}, valency "
                f"{x.valency}) is not a Hall {format_pi(ps)}-subset"
            )

    s = _first_conjugator(scheme, t, u)
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
    preds = _pi_predicates(scheme, subset, ps)
    if not preds.is_closed_pi_subset:
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
