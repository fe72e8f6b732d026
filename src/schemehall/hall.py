"""Hall subsets of solvable schemes with bounded valency primes.

The route goes through one group per scheme: G = S // O^θ(S), the
quotient by the thin residue, which the residue series that decides
solvability builds and checks thin once.  For each pi the Hall
pi-subgroups of G are found by the classical route (_hall_subgroups)
and lifted back through the closed-subset correspondence; the pi-core
is the lift of O_pi(G), their intersection (_core_and_halls).  The
lifted family is proved closed and Hall by its equality with the
exhaustive filter above the core (_hall_family), then certified
conjugate through G (_HallContext).  G is held as the thin hypergroup
the residue series built, so it is joined and conjugated by the kernels
S uses, and a certificate carries it as that hypergroup; only the group
proof reads a Cayley index table.

What depends only on the scheme and pi is kept on the scheme's
pi-record (scheme._pi_facts), one per scheme and pi & primes: the mask
of the pi-valenced relations and the pi-part of n, set when it is
built, and the family all_hall_subsets returns and the Hall context,
set here on first success.  So each fact is checked once, and a warm
query checks only its own inputs, which are closed by their type.
"""
from __future__ import annotations

from collections.abc import Iterable
from functools import reduce
from operator import and_

from .arith import format_pi, is_pi_number, pi_part, validate_pi
from .errors import (
    InternalInconsistencyError,
    NoConjugatorFoundError,
    NotAGroupError,
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
    _closed,
    _conjugates,
    _conjugators,
    _enumerate_closed,
    _thin_index_table,
    bits_of,
    is_strongly_normal,
)
from .quotient import QuotientHypergroup, _lift
from .scheme import AssociationScheme, _own_subset, _pi_facts, _PiFacts, _pi_tests
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
) -> tuple[QuotientHypergroup, dict[int, int], ClosedSubset]:
    """The Hall structure of (scheme, ps), built once: the quotient
    G = S // O^θ(S), that group's Hall ps-subgroups, each with its
    orbit step as _hall_subgroups gives them, and the pi-core lifted
    from their intersection, O_pi(G).  valenced masks the
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
        core = _closed(scheme.hypergroup, hq.modulus.bits)
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
    intersection of the Hall pi-subgroups of G.  Read off the cached
    Hall context of (scheme, pi), built on first use, so it is the core
    every certificate of that context carries, checked as _HallContext
    checks it, with the errors find_hall raises."""
    return _context(scheme, validate_pi(pi)).core


def group_from_thin(hg: Hypergroup) -> Table:
    """Read a thin hypergroup off as a Cayley table, checking only thinness,
    whose failure, a caller's input, raises NotAGroupError: whichever
    door built hg proved H1-H3 on it with the neutral at 0, by the one
    group proof when its table is thin.  The table of element
    indices is read afresh on each call, as no hypergroup keeps one.  No
    library code calls this: the library computes on the thin hypergroup
    itself."""
    t = _thin_index_table(hg.table)
    if t is None:
        p, q = next(
            (p, q) for p, row in enumerate(hg.table) for q, m in enumerate(row) if m & (m - 1)
        )
        raise NotAGroupError(f"product {p} * {q} is not a single element; hypergroup is not thin")
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
    build is one pass over the elements, which refuses an element whose
    order is no pi-number before closing anything, by Lagrange, and
    closes each join from the generators that joined; the orbit is
    taken over a right transversal of the result: see _hall_subgroups.
    """
    ps = validate_pi(pi)
    hg = thin_hypergroup(table)
    if not is_solvable_group(hg):
        raise NotSolvableGroupError(f"group of order {hg.size} is not solvable")
    return tuple(_hall_subgroups(hg, ps))


def _hall_subgroups(hg: Hypergroup, ps: frozenset[int]) -> dict[int, int]:
    """hall_subgroups on a solvable group held as a thin hypergroup, as
    checked by hall_subgroups or the residue series, each Hall subgroup
    mapped to its orbit step: an h with h^-1 H h equal to it, for H the
    greedy build.  Keys are in hall_subgroups order.  Joins are
    closures, right cosets mul_masks products and conjugates
    hypergroup._conjugates.  A pi-part of 1 or n leaves the trivial
    subgroup or G the one Hall subgroup, returned with no search, with
    the neutral element as its step.

    The greedy build makes one pass over the elements and joins the same
    ones as restarting at element 1 after each join: a g that failed to
    join H fails to join every later H' containing H, as <H', g> holds
    <H, g>, whose order has a prime outside pi.  Three measures cut what
    each try costs, and none changes which g join.  By Lagrange, a g
    whose order, read off its powers in the thin table, is no pi-number
    makes <H, g> no pi-group, so it is refused with no closure, and so
    is its inverse, of the same order.  Such elements are bad, and a
    closure that meets one is no pi-group either, so bad is the closure's
    stop mask: a result that meets it is refused, and one that misses it
    is the whole closure, accepted when its order is a pi-number.  And
    <H, g> is closed from the generators that joined H and g alone, as
    H = <gens>, not from every element of H.  The orbit conjugates by
    the least element of each right coset Hg, |G : H| conjugations, as
    g^-1 H g depends only on the coset: (hg)^-1 H (hg) = g^-1 H g.
    """
    n = hg.size
    target = pi_part(n, ps)
    if target in (1, n):
        return {hg.full_mask if target == n else 1: 0}
    table, inv = hg.table, hg.inverse
    hall, gens, bad = 1, 0, 0  # the trivial subgroup, with no generator
    for g in range(1, n):
        if hall.bit_count() == target:
            break
        if (hall | bad) >> g & 1:
            continue
        x, order = g, 1
        while x:  # x = g^order
            x, order = table[x][g].bit_length() - 1, order + 1
        if not is_pi_number(order, ps):
            bad |= 1 << g | 1 << inv[g]
            continue
        ext = hg.closure_mask(gens | 1 << g, bad)
        if not ext & bad and is_pi_number(ext.bit_count(), ps):
            hall, gens = ext, gens | 1 << g
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
    orbit = {conj: h for h, conj in _conjugates(hg, hall, reps)}
    return orbit if len(orbit) == 1 else {c: orbit[c] for c in sorted(orbit, key=bits_of)}


def all_hall_subsets(scheme: AssociationScheme, pi: Iterable[int]) -> tuple[ClosedSubset, ...]:
    """Exhaustive filter: every closed pi-subset passing the Hall
    predicate, in closed_subsets order.  Filtered once per scheme and
    pi & primes, independently of the Hall context, and kept on the
    scheme's pi-record."""
    ps = validate_pi(pi)
    facts = _pi_facts(scheme, ps)
    family = facts.family
    if family is None:
        family = facts.family = _hall_family(scheme, ps, facts.valenced, facts.target, 1)
    return family


def _hall_family(
    scheme: AssociationScheme, ps: frozenset[int], valenced: int, target: int, bottom: int
) -> tuple[ClosedSubset, ...]:
    """The Hall pi-subsets that contain the closed mask bottom, in
    closed_subsets order, for valenced, the mask of the pi-valenced
    relations, and target, the pi-part of n: all_hall_subsets passes
    {0}, and _HallContext the pi-core, which every Hall pi-subset
    contains.

    A Hall subset is pi-valenced with target as its valency
    (scheme._pi_tests), so when that is n or 1 the one candidate is the
    full set or {0}, given its valency.  Otherwise the candidates are
    the closed subsets that contain bottom: the members of the
    hypergroup's cached lattice that do, if it has one, else the closed
    pi-subsets above bottom alone, as a closed subset of a closed
    pi-subset is one too (for closed C inside D, n_C divides n_D), so
    the closed subset walk narrowed to them finds them without the rest
    of the lattice.  The walk's results are filtered on the valencies it
    summed, by mask, and are returned with their valency unset, to be
    summed on first read.  The other candidates are tested in one loop,
    with no call per candidate: each valency read must divide n, as the
    classes of a closed subset partition the points, checked here once
    per (scheme, pi), and a candidate is Hall when its valency is target
    and its relations lie in valenced.  A bottom that is no pi-subset
    leaves no Hall subset.

    target is also the largest valency of a closed pi-subset: each
    valency is a pi-number dividing n, so it divides the pi-part.  A
    closed subset strictly above K has a valency strictly larger than
    n_K, so none lies above a closed pi-subset of valency target, and
    the walk takes those as leaves: reported, not extended, and a
    bottom of that valency is the one candidate, with no attribute
    built.  The candidates are the same, in the same order.
    """
    hg = scheme.hypergroup
    n = scheme.n_points
    if target == n:
        candidates = (_closed(hg, hg.full_mask, n),)
    elif target == 1:
        candidates = (_closed(hg, 1, 1),)
    elif hg._closed is not None:  # {0} lies in every closed subset
        candidates = hg._closed if bottom == 1 else [c for c in hg._closed if not bottom & ~c.bits]
    else:
        valency: dict[int, int] = {}  # by mask, for each mask closed_pi summed

        def closed_pi(mask: int) -> bool:
            if mask & ~valenced:
                return False
            v = valency[mask] = hg.valency_of_mask(mask)
            return is_pi_number(v, ps)

        walked = _enumerate_closed(hg, closed_pi, bottom, lambda m: valency[m] == target)
        return tuple(t for t in walked if valency[t.bits] == target)
    family = []
    for t in candidates:
        v = t.valency
        if n % v:
            raise InternalInconsistencyError("closed subset valency must divide n")
        if v == target and not t.bits & ~valenced:
            family.append(t)
    return tuple(family)


class _HallContext:
    """The Hall structure of one (scheme, pi), built and checked once.

    facts is the scheme's pi-record, whose valenced, the mask of the
    pi-valenced relations, and target, the pi-part of n, the queries'
    tests read.  core is the pi-core and hq the quotient by the thin
    residue, shared by every pi, the group G as a thin hypergroup.  halls are the Hall subgroups of hq in hall_subgroups
    order and lifted[i] the sum of the cosets halls[i] names, given the
    valency target.  No lift is checked on its own: the family equals
    _hall_family's filter, whose members are closed and Hall, which
    proves each lift closed, Hall and of that valency.  Only then is
    each certified conjugate to lifted[0] through the coset of a
    conjugator of halls[0] onto halls[i], read off the orbit that built
    them on hq rather than searched for: with halls[0] = a^ H a and
    halls[i] = b^ H b, H = a halls[0] a^, so g = a^ b, one product in
    the thin hq, has g^ halls[0] g = halls[i].  Only a core that is
    neither the residue modulus nor the whole scheme is checked closed
    by _lift, in _core_and_halls.  The lift of all of G is the whole
    scheme, as the cosets partition it; the family check runs on it all
    the same.  Every pi with the same primes among those of the scheme
    shares the context.

    lifted[0] is the least lifted Hall subset by members(), the one
    find_hall certifies, with no search: halls are in member-tuple
    order, and lifting keeps that order, as the least relation of coset
    i rises with i.  For Hall subgroups A before B, of the same order,
    let a be the first coset in A and not in B.  The two lifts share
    every relation below r_a, the least relation of a, as it lies in a
    coset before a, which A and B hold alike; r_a lies in the lift of A
    only, and the lift of B holds relations of its next member after
    the shared ones, a coset after a, so all above r_a.

    The filter reads only the closed pi-subsets that contain the core,
    off the cached lattice if there is one and by a walk above the core
    otherwise, as every Hall pi-subset contains it.  The walk stops at
    the valency target, which no closed pi-subset exceeds, as its
    valency is a pi-number dividing n; so a core of valency target, as
    in a cyclic group or for a normal Hall subgroup, is the family's one
    candidate, and nothing is walked.

    Lemma.  Let S be solvable and pi-valenced, N a closed pi-subset
    normal in S that contains O^θ(S), and H a Hall pi-subset.  Then N
    lies in H.  Proof: NH is closed, as N is normal.  S // N is thin,
    as N contains O^θ(S), so n_NH is n_N times the order of NH // N,
    which by the second isomorphism statement is H // (H ∩ N), of order
    n_H / n_(H ∩ N).  So n_NH is a pi-number.  It divides n, as the
    points fall into NH-classes of size n_NH, so it is at most the
    pi-part of n, which is n_H.  As H lies in NH, NH = H, and N lies
    in H.

    The core is such an N: it is closed and strongly normal, so normal,
    as _core_and_halls checks, or as the residue series proved once per
    scheme for the residue modulus, and the whole scheme is both; it
    contains O^θ(S), being the lift of a subgroup of S // O^θ(S); and
    it is a pi-subset, pi-valenced with a pi-number valency, which the
    filter needs of it: the walk asks keep(bottom), and no closed subset
    that contains a core that is not passes the Hall test.  A core that
    fails it leaves the filter empty, and the check fires.
    """

    __slots__ = ("scheme", "facts", "core", "hq", "halls", "lifted")

    def __init__(self, scheme: AssociationScheme, ps: frozenset[int], facts: _PiFacts):
        self.scheme, self.facts = scheme, facts
        hq, steps, self.core = _core_and_halls(scheme, ps, facts.valenced)
        self.hq, self.halls = hq, tuple(steps)
        hg, cosets = scheme.hypergroup, hq.cosets
        self.lifted = tuple(
            _closed(
                hg,
                hg.full_mask if gm == hq.full_mask else sum(map(cosets.__getitem__, bits_of(gm))),
                facts.target,
            )
            for gm in self.halls
        )
        filtered = _hall_family(scheme, ps, facts.valenced, facts.target, self.core.bits)
        if {t.bits for t in self.lifted} != {t.bits for t in filtered}:
            raise InternalInconsistencyError(
                "constructive Hall family differs from the exhaustive filter"
            )

        to_first = hq.table[hq.inverse[steps[self.halls[0]]]]  # row a^
        for gm, t in zip(self.halls[1:], self.lifted[1:]):
            g = to_first[steps[gm]].bit_length() - 1  # a^ b, with gm = b^ H b
            if next(_conjugators(hg, self.lifted[0].bits, t.bits, cosets[g]), None) is None:
                raise InternalInconsistencyError(
                    "no member of the lifted conjugator coset conjugates the "
                    "subsets directly"
                )

    def certificate(self, i: int, ps: frozenset[int]) -> HallCertificate:
        """A fresh certificate for the i-th Hall subset, asked for pi = ps."""
        return HallCertificate(
            ps, self.scheme, self.lifted[i], self.core, self.halls[i], self.hq
        )


def _context(scheme: AssociationScheme, ps: frozenset[int]) -> _HallContext:
    """The Hall context of (scheme, ps), kept on the scheme's pi-record
    that scheme._pi_facts finds, and built on first use with ps itself
    and that record, so error messages name the pi asked for; errors
    are not cached."""
    facts = _pi_facts(scheme, ps)
    ctx = facts.context
    if ctx is None:
        ctx = facts.context = _HallContext(scheme, ps, facts)
    return ctx


def find_hall(scheme: AssociationScheme, pi: Iterable[int]) -> HallCertificate:
    """A Hall subset for pi, with its construction trail.

    Constructive route through the thin quotient group, verified once
    per (scheme, pi) against the Hall filter above the pi-core; the
    lexicographically least Hall subset is the one certified.  Each
    call returns a new certificate.
    """
    ps = validate_pi(pi)
    return _context(scheme, ps).certificate(0, ps)


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
    is conjugate through the quotient group, so two Hall subsets with no
    conjugator raise NoConjugatorFoundError.  Once both inputs pass, a
    subset asked onto itself is answered 0 with no scan: 0^ T 0 = T by
    H2, and 0 is the least index, so it is the scan's own answer.
    """
    ps = validate_pi(pi)
    ctx = _context(scheme, ps)  # raises the precondition errors; certifies conjugacy once
    for label, x in (("first", t), ("second", u)):
        _own_subset(scheme, x)
        if not _pi_tests(x, ctx.facts.valenced, ctx.facts.target)[1]:
            raise NotHallError(
                f"{label} subset (relations {list(x.members())}, valency "
                f"{x.valency}) is not a Hall {format_pi(ps)}-subset"
            )
    if t.bits == u.bits:
        return 0  # 0^ T 0 = T, by H2, and 0 is the least relation

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
    group containing its image.  So a closed pi-subset that no Hall
    subset contains raises InternalInconsistencyError.
    """
    ps = validate_pi(pi)
    ctx = _context(scheme, ps)
    _own_subset(scheme, subset)
    if _pi_tests(subset, ctx.facts.valenced, ctx.facts.target)[0]:
        for i, h in enumerate(ctx.lifted):
            if subset.bits & ~h.bits == 0:
                return ctx.certificate(i, ps)
        raise InternalInconsistencyError(
            f"no lifted Hall subset contains the closed subset with relations "
            f"{list(subset.members())}"
        )
    raise NotClosedPiSubsetError(
        f"subset of valency {subset.valency} with relations "
        f"{list(subset.members())} is not a closed {format_pi(ps)}-subset"
    )
