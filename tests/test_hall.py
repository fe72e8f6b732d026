"""Hall subsets: search, conjugacy and extension.

Frozen expectations, cross-checked against plain group theory before
being written down: in S4 the Sylow 2-subgroups are the three dihedral
subgroups of order 8 (counted here by brute-force subgroup enumeration,
see `all_subgroups`), O_2(S4) is the Klein four-group of double
transpositions, and O_3(S4) is trivial.
"""

import functools
import importlib
import itertools
import operator
import sys

import pytest

import schemehall as sh
from schemehall import hall as hall_module
from schemehall import groups as groups_module
from schemehall.groups import all_subgroups, group_inverse, is_solvable_group
from schemehall.hypergroup import bits_of, mask_of

from conftest import ALL_PI, catalogue_schemes, product_matrices, residue_corpus
from oracles import (
    all_subgroups_scan,
    extend_via_core_product,
    greedy_hall_subgroup,
    hall_filter_lattice,
    hall_subgroups_full_orbit,
)

# the package's quotient function shadows its quotient module
quotient_module = importlib.import_module("schemehall.quotient")
hypergroup_module = importlib.import_module("schemehall.hypergroup")
solvability_module = importlib.import_module("schemehall.solvability")
scheme_module = importlib.import_module("schemehall.scheme")


@pytest.fixture(scope="module")
def s4_scheme():
    return sh.from_group(sh.symmetric(4), name="s4")


@pytest.fixture(scope="module")
def wreath28():
    return sh.bundled_scheme("hm176_28").scheme()


def test_c6_hall_certificates():
    c6 = sh.from_group(sh.cyclic(6), name="c6")
    cert2 = sh.find_hall(c6, {2})
    assert tuple(cert2.hall.members()) == (0, 3)
    assert cert2.index == 3
    assert tuple(cert2.o_pi.members()) == (0, 3)
    cert3 = sh.find_hall(c6, {3})
    assert tuple(cert3.hall.members()) == (0, 2, 4)
    assert cert3.index == 2
    empty = sh.find_hall(c6, set())
    assert tuple(empty.hall.members()) == (0,)
    assert empty.index == 6


def test_s4_three_sylow2_subsets(s4_scheme):
    halls = sh.all_hall_subsets(s4_scheme, {2})
    assert len(halls) == 3
    assert all(len(h.members()) == 8 for h in halls)
    # brute-force subgroup enumeration sees the same three
    masks = [m for m in all_subgroups(sh.symmetric(4)) if bin(m).count("1") == 8]
    assert len(masks) == 3
    assert sorted(h.bits for h in halls) == sorted(masks)


def test_find_hall_returns_first_hall_subset(s4_scheme):
    halls = sh.all_hall_subsets(s4_scheme, {2})
    cert = sh.find_hall(s4_scheme, {2})
    assert cert.hall == halls[0]
    assert tuple(cert.hall.members()) == (0, 1, 6, 7, 16, 17, 22, 23)


def test_s4_sylows_are_conjugate(s4_scheme):
    halls = sh.all_hall_subsets(s4_scheme, {2})
    for t in halls:
        for u in halls:
            g = sh.conjugating_element(s4_scheme, t, u, {2})
            moved = sh.conjugate_subset(s4_scheme, t, g)
            assert tuple(moved.members()) == tuple(u.members())
    assert sh.conjugating_element(s4_scheme, halls[0], halls[0], {2}) == 0
    assert sh.conjugators(s4_scheme, halls[0], halls[1]) == (
        4, 5, 8, 9, 14, 15, 18, 19,
    )


def test_conjugating_element_rejects_non_hall(s4_scheme):
    """A closed pi-subset that is not Hall is refused in either position,
    and also as both: the inputs are tested before a subset is answered
    with relation 0 as conjugating it onto itself."""
    halls = sh.all_hall_subsets(s4_scheme, {2})
    with pytest.raises(sh.NotHallError):
        sh.conjugating_element(s4_scheme, s4_scheme.hypergroup.neutral_subset(), halls[0], {2})
    v4 = sh.compute_o_pi(s4_scheme, {2})
    assert sh.pi_predicates(s4_scheme, v4, {2}).is_closed_pi_subset
    with pytest.raises(sh.NotHallError) as info:
        sh.conjugating_element(s4_scheme, v4, v4, {2})
    assert str(info.value) == (
        "first subset (relations [0, 7, 16, 23], valency 4) is not a Hall {2}-subset"
    )


@pytest.mark.parametrize("mask", [0xFF, 0b110])
def test_hall_queries_name_an_input_that_is_not_closed(s4_scheme, mask):
    """A mask that is not closed never reaches a Hall query, whose tests
    read only a subset's relations and valency: relations 0-7 have the
    Hall valency 8 at {2}, and relations 1 and 2 the pi-valency 2.  The
    ClosedSubset constructor refuses it with NotClosedError naming its
    relations, as closed_subset does, given as the mask or as the list
    of its relations; its closure is accepted, and is closed_subset's
    answer for it."""
    hg = s4_scheme.hypergroup
    assert not hg.is_closed_mask(mask)
    members = bits_of(mask)
    for elements in (mask, list(members)):
        for build in (sh.ClosedSubset, lambda hg, e: s4_scheme.closed_subset(e)):
            with pytest.raises(sh.NotClosedError) as info:
                build(hg, elements)
            assert str(info.value) == f"relation set {members} is not closed"
    closed = sh.closure(hg.subset(mask))
    assert closed.bits != mask
    assert sh.ClosedSubset(hg, closed.bits) == s4_scheme.closed_subset(closed.members()) == closed


def test_o_pi_values(s4_scheme):
    v4 = sh.compute_o_pi(s4_scheme, {2})
    assert tuple(v4.members()) == (0, 7, 16, 23)
    assert len(v4.members()) == 4
    assert tuple(sh.compute_o_pi(s4_scheme, {3}).members()) == (0,)


def test_extend_to_hall(s4_scheme):
    tab = sh.symmetric(4)
    involution = next(x for x in range(1, 24) if tab[x][x] == 0)
    small = sh.closure(s4_scheme.hypergroup.subset([involution]))
    assert tuple(small.members()) == (0, 1)
    cert = sh.extend_to_hall(s4_scheme, small, {2})
    assert len(cert.hall.members()) == 8
    assert set(small.members()) <= set(cert.hall.members())


def test_extend_to_hall_rejects_non_pi_subset(s4_scheme):
    tab = sh.symmetric(4)
    three_cycle = next(x for x in range(1, 24) if tab[x][x] != 0)
    odd = sh.closure(s4_scheme.hypergroup.subset([three_cycle]))
    with pytest.raises(sh.NotClosedPiSubsetError):
        sh.extend_to_hall(s4_scheme, odd, {2})


def test_wreath28_certificate(wreath28):
    cert = sh.find_hall(wreath28, {2})
    assert wreath28.hypergroup.valency_of_mask(cert.hall.bits) == 4
    assert cert.index == 7
    assert wreath28.hypergroup.valency_of_mask(cert.o_pi.bits) == 4
    assert cert.hyper_quotient.size == 7
    assert cert.lifted_subgroup == 1  # only the neutral coset upstairs


def test_precondition_errors_and_messages(wreath28):
    with pytest.raises(
        sh.NotPiValencedError,
        match=r"scheme is not \{7\}-valenced: relation 4 has valency 4",
    ):
        sh.find_hall(wreath28, {7})
    pent = sh.bundled_scheme("pentagon").scheme()
    with pytest.raises(sh.NotSolvableError):
        sh.find_hall(pent, {2})
    # the Petersen scheme is {2,3}-valenced, so it passes the first
    # gate and fails on solvability
    pet = sh.bundled_scheme("petersen").scheme()
    with pytest.raises(sh.NotSolvableError):
        sh.find_hall(pet, {2, 3})


def test_hall_subgroups_matches_brute_force():
    cases = [(name, sh.bundled_group(name).table, ALL_PI) for name in sh.bundled_group_names()]
    s4c2 = sh.direct_product(sh.symmetric(4), sh.cyclic(2))
    cases.append(("s4 x c2", s4c2, (frozenset({2}), frozenset({3}))))
    for name, table, pis in cases:
        order = len(table)
        subgroups = all_subgroups_scan(table)
        for pi in pis:
            target = sh.pi_part(order, pi)
            brute = tuple(m for m in subgroups if m.bit_count() == target)
            assert brute, (name, pi)
            assert sh.hall_subgroups(table, pi) == brute, (name, sorted(pi))


def test_hall_subgroups_match_the_full_conjugation_orbit():
    """One greedy pass and one conjugation per right coset of the Hall
    subgroup give the family that restarting the join after each success
    and conjugating by every element gives: on every bundled solvable
    group and S4 x C2, for every pi of the primes of its order.  Each
    member keeps an h of its orbit step, and h^-1 H h is that member for
    the greedy Hall subgroup H."""
    tables = [sh.bundled_group(name).table for name in sh.bundled_group_names()]
    tables.append(sh.direct_product(sh.symmetric(4), sh.cyclic(2)))
    cases = 0
    for t in tables:
        if not is_solvable_group(sh.thin_hypergroup(t)):
            continue
        primes = sh.prime_factors(len(t))
        for k in range(len(primes) + 1):
            for pi in itertools.combinations(primes, k):
                ps = frozenset(pi)
                got = hall_module._hall_subgroups(sh.thin_hypergroup(t), ps)
                assert tuple(got) == hall_subgroups_full_orbit(t, ps)
                greedy = bits_of(greedy_hall_subgroup(t, ps))
                inv = group_inverse(t)
                for mask, h in got.items():
                    assert mask_of(t[t[inv[h]][x]][h] for x in greedy) == mask
                cases += 1
    assert cases > 100


def test_greedy_hall_build_closes_from_its_generators(monkeypatch):
    """The greedy build at pi = {2} refuses an element of odd order with
    no closure, closes <H, g> from H's generators and g, and stops a
    closure at the first element of odd order it meets.  Counted as the
    closures it makes on G and the elements they return: 28 returning
    604 on the quotient of a fresh S4 x C4 scheme, where closing from
    every element of H made 52 returning 3,516; and 3 returning 388
    through hall_subgroups on D32 x C12, of order 768, where it made 259
    returning 95,710.  The families equal the oracle's full orbit."""
    sizes = []
    watched = []
    original_closure = hypergroup_module.Hypergroup.closure_mask
    original_build = hall_module._hall_subgroups

    def counted_closure(self, mask, stop=0):
        out = original_closure(self, mask, stop)
        if self in watched:
            sizes.append(out.bit_count())
        return out

    def watched_build(hg, ps):
        watched.append(hg)
        try:
            return original_build(hg, ps)
        finally:
            watched.clear()

    monkeypatch.setattr(hypergroup_module.Hypergroup, "closure_mask", counted_closure)
    monkeypatch.setattr(hall_module, "_hall_subgroups", watched_build)
    ps = frozenset({2})
    table = sh.direct_product(sh.symmetric(4), sh.cyclic(4))
    scheme = sh.from_group(table)
    assert sh.is_solvable_scheme(scheme)
    got = hall_module._hall_subgroups(scheme.hypergroup._residue[0], ps)
    assert (len(sizes), sum(sizes)) == (28, 604)
    assert tuple(got) == hall_subgroups_full_orbit(table, ps) and len(got) == 3

    sizes.clear()
    table = sh.direct_product(sh.dihedral(32), sh.cyclic(12))
    got = sh.hall_subgroups(table, ps)
    assert (len(sizes), sum(sizes)) == (3, 388)
    assert got == hall_subgroups_full_orbit(table, ps) and len(got) == 1


def test_hall_orbit_conjugates_once_per_coset(monkeypatch):
    """S4 with pi = {2}: the three Sylow 2-subgroups are read off 3
    conjugations, one per right coset of the first, not 24."""
    conjugations = []
    real = hall_module._conjugates

    def counted(*args):
        for h, conj in real(*args):
            conjugations.append((h, conj))
            yield h, conj

    monkeypatch.setattr(hall_module, "_conjugates", counted)
    halls = hall_module._hall_subgroups(sh.thin_hypergroup(sh.symmetric(4)), frozenset({2}))
    assert len(halls) == 3 and len(conjugations) == 3
    assert {conj for _, conj in conjugations} == set(halls)


def test_hall_subgroups_rejects_non_solvable_group():
    with pytest.raises(sh.NotSolvableGroupError):
        sh.hall_subgroups(sh.alternating(5), {2, 3})


def test_is_solvable_group_matches_lattice_chain():
    tables = [sh.bundled_group(name).table for name in sh.bundled_group_names()]
    tables += [sh.alternating(5), sh.direct_product(sh.symmetric(4), sh.cyclic(2))]
    non_solvable = []
    for table in tables:
        hg = sh.thin_hypergroup(table)
        verdict = is_solvable_group(hg)
        assert verdict == sh.is_solvable(hg), len(table)
        if not verdict:
            non_solvable.append(len(table))
    assert non_solvable == [60]


# --- the cached Hall context ------------------------------------------------


def _hall_answers(make, pi):
    """Every Hall answer for pi, each query asked of the scheme make() returns.

    Subsets are passed as masks and rebuilt on the scheme that answers,
    so make may hand out one warm scheme or a fresh one per query.
    """
    def ask(fn, *masks):
        s = make()
        return fn(s, *(s.closed_subset(m) for m in masks))

    cert = ask(lambda s: sh.find_hall(s, pi))
    out = [("find_hall", cert.hall.bits, cert.o_pi.bits, cert.lifted_subgroup,
            sh.group_from_thin(cert.hyper_quotient), cert.index)]
    halls = [t.bits for t in ask(lambda s: sh.all_hall_subsets(s, pi))]
    for t in halls:
        for u in halls:
            out.append(ask(lambda s, a, b: sh.conjugating_element(s, a, b, pi), t, u))
    seeds = ask(lambda s: [
        t.bits for t in s.closed_subsets() if sh.pi_predicates(s, t, pi).is_closed_pi_subset
    ])
    for t in seeds:
        ext = ask(lambda s, a: sh.extend_to_hall(s, a, pi), t)
        out.append(("extend", t, ext.hall.bits, ext.lifted_subgroup))
    return out


def test_warm_context_matches_cold_scheme():
    checked = 0
    for order in sh.bundled_orders():
        if order > 8:
            continue
        for sf in sh.bundled_catalogue(order):
            warm = sf.scheme()
            if not sh.is_solvable_scheme(warm):
                continue
            for pi in ALL_PI:
                if not sh.is_pi_valenced(warm, pi):
                    continue
                first = _hall_answers(lambda: warm, pi)
                again = _hall_answers(lambda: warm, pi)
                cold = _hall_answers(sf.scheme, pi)
                assert first == again == cold, (sf.name, sorted(pi))
                checked += 1
    assert checked == 336


def test_certificates_are_not_shared(s4_scheme):
    cert = sh.find_hall(s4_scheme, {2})
    want = cert.lifted_subgroup
    cert.lifted_subgroup = -1
    again = sh.find_hall(s4_scheme, {2})
    assert again is not cert
    assert again.lifted_subgroup == want
    small = s4_scheme.hypergroup.neutral_subset()
    ext = sh.extend_to_hall(s4_scheme, small, {2})
    want = ext.lifted_subgroup
    ext.lifted_subgroup = -1
    assert sh.extend_to_hall(s4_scheme, small, {2}).lifted_subgroup == want


def test_o_pi_runs_once_per_scheme_and_pi(monkeypatch):
    """The Hall structure (core, quotient and its Hall subgroups) is
    built once per (scheme, pi & primes), for every query and for
    compute_o_pi, which returns the cached core itself; a failed build
    is not cached."""
    calls = []
    original = hall_module._core_and_halls

    def counted(scheme, ps, valenced):
        calls.append(frozenset(ps))
        return original(scheme, ps, valenced)

    monkeypatch.setattr(hall_module, "_core_and_halls", counted)
    s4 = sh.from_group(sh.symmetric(4), name="s4")
    for pi in ({2}, {3}, {2}, {3}, {2, 11}, {2, 7}):
        assert sh.compute_o_pi(s4, pi) is sh.find_hall(s4, pi).o_pi
        halls = sh.all_hall_subsets(s4, pi)
        sh.conjugating_element(s4, halls[0], halls[-1], pi)
        sh.extend_to_hall(s4, s4.hypergroup.neutral_subset(), pi)
    assert sorted(calls, key=sorted) == [frozenset({2}), frozenset({3})]
    # a scheme that fails the preconditions caches nothing and fails again
    pent = sh.bundled_scheme("pentagon").scheme()
    for _ in range(2):
        with pytest.raises(sh.NotSolvableError):
            sh.find_hall(pent, {2})
    assert len(calls) == 4
    # 11 and 7 divide neither n = 24 nor a valency, so {2, 11} and {2, 7}
    # share the {2} context, while certificates keep the pi asked for
    assert sh.find_hall(s4, {2, 11}).pi == {2, 11}
    assert sh.find_hall(s4, {2}).pi == {2}
    assert len(calls) == 4


def test_context_build_masks_the_pi_valenced_relations_once(monkeypatch):
    """A query reads the scheme's pi-record, which holds the mask of the
    pi-valenced relations, the pi-part of n and the Hall context, once,
    and the record is built once: the first find_hall on S4 with
    pi = {2} makes 1 build and 1 read, handing the record to the context
    for its core and Hall build and its check.  A query on the cached
    context, and all_hall_subsets, read it once each with no build, and
    is_pi_valenced asked {2, 11} finds it under {2}, with no build and
    no second entry."""
    builds, reads = [], []
    real_read = hall_module._pi_facts

    class CountedFacts(scheme_module._PiFacts):
        __slots__ = ()

        def __init__(self, scheme, ps):
            builds.append(ps)
            super().__init__(scheme, ps)

    def counted_read(scheme, ps):
        reads.append(ps)
        return real_read(scheme, ps)

    monkeypatch.setattr(scheme_module, "_PiFacts", CountedFacts)
    monkeypatch.setattr(hall_module, "_pi_facts", counted_read)
    s4 = sh.from_group(sh.symmetric(4), name="s4")
    assert sh.find_hall(s4, {2}).hall.valency == 8
    assert builds == reads == [frozenset({2})]
    sh.find_hall(s4, {2})
    assert reads == [frozenset({2})] * 2
    assert len(sh.all_hall_subsets(s4, {2})) == 3
    assert reads == [frozenset({2})] * 3
    assert sh.is_pi_valenced(s4, {2, 11})
    assert len(builds) == 1
    facts, = s4._pi_facts.values()
    assert list(s4._pi_facts) == [frozenset({2})]
    assert (facts.valenced, facts.target) == (2**24 - 1, 8)


def test_all_hall_subsets_filters_once_per_pi_record(monkeypatch):
    """Repeated all_hall_subsets on a scheme runs the Hall filter once
    per scheme and pi & primes, with no lattice cached and with one, and
    returns what a fresh scheme returns: on S4, {2}, {2, 11} and {2, 7}
    share one filter and {3} has its own.  A find_hall between the calls
    filters above its core for itself and leaves the family as it was."""
    calls = []
    real = hall_module._hall_family

    def counted(scheme, ps, valenced, target, bottom):
        calls.append((scheme, ps, bottom))
        return real(scheme, ps, valenced, target, bottom)

    monkeypatch.setattr(hall_module, "_hall_family", counted)
    for cached in (False, True):
        s4 = sh.from_group(sh.symmetric(4))
        if cached:
            s4.closed_subsets()
        calls.clear()
        for pi in ({2}, {2, 11}, {2}, {3}, {2, 7}, {3}):
            got = sh.all_hall_subsets(s4, pi)
            if pi == {2, 11}:
                sh.find_hall(s4, pi)
            want = sh.all_hall_subsets(sh.from_group(sh.symmetric(4)), pi)
            assert [(t.bits, t.valency) for t in got] == [(t.bits, t.valency) for t in want]
            assert len(got) == (3 if 2 in pi else 4)
        mine = [(ps, bottom) for scheme, ps, bottom in calls if scheme is s4]
        v4 = sh.compute_o_pi(s4, {2}).bits
        assert mine == [({2}, 1), ({2, 11}, v4), ({3}, 1)], cached


def test_find_hall_certifies_the_least_hall_subset():
    """find_hall's Hall subset, the context's first lifted one, is the
    least of all_hall_subsets by members(), for every pi inside
    {2, 3, 5, 7} that find_hall answers, on the thin schemes of the
    bundled groups and the catalogue to order 12."""
    schemes = [
        *catalogue_schemes(12),
        *(sh.from_group(sh.bundled_group(g).table) for g in sh.bundled_group_names()),
    ]
    answered = several = 0
    for scheme in schemes:
        for pi in ALL_PI:
            try:
                cert = sh.find_hall(scheme, pi)
            except (sh.NotSolvableError, sh.NotPiValencedError):
                continue
            family = sh.all_hall_subsets(scheme, pi)
            assert cert.hall.bits == min(family, key=lambda t: t.members()).bits
            answered += 1
            several += len(family) > 1
    assert (answered, several) == (1288, 88)


def test_context_builds_one_quotient_and_no_thin_hypergroup(monkeypatch):
    """The residue series builds S4 // {0} once, and every pi reads its
    Hall structure off that one quotient."""
    quotients = []
    thin = []
    original_quotient = solvability_module._quotient
    original_thin = groups_module.thin_hypergroup

    def counted_quotient(hg, outer, modulus, name):
        quotients.append(modulus.bits)
        return original_quotient(hg, outer, modulus, name)

    def counted_thin(*args, **kwargs):
        thin.append(args)
        return original_thin(*args, **kwargs)

    monkeypatch.setattr(solvability_module, "_quotient", counted_quotient)
    monkeypatch.setattr(groups_module, "thin_hypergroup", counted_thin)
    monkeypatch.setattr(hall_module, "thin_hypergroup", counted_thin, raising=False)
    s4 = sh.from_group(sh.symmetric(4), name="s4")
    for pi in ({2}, {3}):
        sh.find_hall(s4, pi)
    assert len(quotients) == 1
    assert thin == []


def test_only_the_core_is_lifted_with_a_closedness_check(monkeypatch):
    """_lift, which checks its lift closed, runs for the pi-core alone,
    as no filter stands behind the core; each lifted Hall subset is a
    plain coset sum, proved closed by the family's equality with the
    exhaustive filter.  A core that is the residue modulus or the whole
    scheme is not lifted, as the residue series proved the one closed
    and strongly normal once per scheme.  So S4 makes no _lift call for
    pi = {2, 3}, whose core is the whole scheme, and one for pi = {2},
    with its three Sylow 2-subsets, for O_2 = V4."""
    calls = []
    original = hall_module._lift

    def counted(q, bits):
        calls.append(bits)
        return original(q, bits)

    monkeypatch.setattr(hall_module, "_lift", counted)
    cert = sh.find_hall(sh.from_group(sh.symmetric(4), name="s4"), {2, 3})
    assert cert.hall.bits == cert.o_pi.bits == cert.scheme.hypergroup.full_mask
    assert cert.hall.valency == 24 and calls == []
    cert = sh.find_hall(sh.from_group(sh.symmetric(4), name="s4"), {2})
    assert cert.hall.valency == 8 and calls == [cert.o_pi.bits]


def test_trivial_pi_parts_build_the_context_with_no_search(monkeypatch):
    """When the pi-part of |G| is 1 or |G|, the one Hall subgroup is the
    trivial one or G, and so is the core: a warm scheme's find_hall
    then makes no closure, conjugation, lift or strong-normality check.
    Run on a fresh scheme of each bundled group for each such pi."""
    calls = []
    original_closure = hypergroup_module.Hypergroup.closure_mask

    def counted_closure(self, mask, stop=0):
        calls.append("closure_mask")
        return original_closure(self, mask, stop)

    def counting(name, real):
        def counted(*args):
            calls.append(name)
            return real(*args)

        return counted

    monkeypatch.setattr(hypergroup_module.Hypergroup, "closure_mask", counted_closure)
    for module in (hall_module, hypergroup_module):
        monkeypatch.setattr(module, "_conjugates", counting("_conjugates", module._conjugates))
    for name in ("_lift", "is_strongly_normal"):
        monkeypatch.setattr(hall_module, name, counting(name, getattr(hall_module, name)))
    cases = 0
    for name in sh.bundled_group_names():
        table = sh.bundled_group(name).table
        n = len(table)
        for pi in ALL_PI:
            target = sh.pi_part(n, pi)
            if target not in (1, n):
                continue
            scheme = sh.from_group(table, name=name)
            assert sh.is_solvable_scheme(scheme)
            calls.clear()
            cert = sh.find_hall(scheme, pi)
            assert calls == [], (name, pi)
            full = scheme.hypergroup.full_mask if target == n else 1
            assert cert.hall.bits == cert.o_pi.bits == cert.lifted_subgroup == full, (name, pi)
            cases += 1
    assert cases == 440


def test_hall_subsets_of_thin_schemes_beyond_order_12():
    """On thin schemes of 64 and 96 points, for every pi over 2, 3 and
    5: the Hall subset's valency is the pi-part of n, its index a
    pi'-number, and the pi-core the intersection of all Hall subsets,
    as O_pi(G) is the intersection of the Hall pi-subgroups of a
    solvable group."""
    c2 = sh.cyclic(2)
    pis = [frozenset(p) for k in range(4) for p in itertools.combinations((2, 3, 5), k)]
    tables = {
        "s4xc4": sh.direct_product(sh.symmetric(4), sh.cyclic(4)),
        "d12xc4": sh.direct_product(sh.dihedral(12), sh.cyclic(4)),
        "a4xc8": sh.direct_product(sh.alternating(4), sh.cyclic(8)),
        "s3xc16": sh.direct_product(sh.symmetric(3), sh.cyclic(16)),
        "c2^6": functools.reduce(sh.direct_product, [c2] * 6),
    }
    for name, table in tables.items():
        s = sh.from_group(table, name=name)
        assert s.n_points == (64 if name == "c2^6" else 96)
        for pi in pis:
            cert = sh.find_hall(s, pi)
            assert cert.hall.valency == sh.pi_part(s.n_points, pi), (name, pi)
            assert sh.pi_part(cert.index, pi) == 1, (name, pi)
            meet = functools.reduce(operator.and_, (t.bits for t in sh.all_hall_subsets(s, pi)))
            assert cert.o_pi.bits == meet, (name, pi)


def test_context_family_is_the_full_filter_on_fresh_schemes():
    """A context with no lattice cached checks its family against the
    closed pi-subsets that contain the pi-core alone, walked up to the
    Hall valency; the family is still every Hall pi-subset that
    all_hall_subsets reads off the whole lattice, cached first on a
    second fresh copy, so no keep and no leaf narrow the oracle's walk.
    Fresh copies of the residue corpus (the catalogue to order 28, the
    product matrices and the group schemes, all through validate_scheme),
    the thin schemes of S4 x C4 and D12 x C4 (96 points) and the 38
    bundled group schemes through from_group, for every pi over the
    primes of n and the valencies that has a context: 294 (scheme, pi)
    pairs, 122 of them with a core other than {0} and S.  The bundled
    groups add 79 pairs; in 42 of them the pi-part is neither 1 nor n,
    and in 30 of those the pi-core already has the Hall valency."""
    builds = [functools.partial(sh.validate_scheme, s.rel, name=s.name) for s in residue_corpus()]
    tables = [
        ("s4xc4", sh.direct_product(sh.symmetric(4), sh.cyclic(4))),
        ("d12xc4", sh.direct_product(sh.dihedral(12), sh.cyclic(4))),
    ]
    tables += [(name, sh.bundled_group(name).table) for name in sh.bundled_group_names()]
    builds += [functools.partial(sh.from_group, table, name=name) for name, table in tables]
    pairs = narrowed = 0
    for build in builds:
        s, whole = build(), build()
        whole.closed_subsets()
        primes = sorted(s.primes)
        for k in range(1, len(primes) + 1):
            for pi in map(frozenset, itertools.combinations(primes, k)):
                try:
                    ctx = hall_module._context(s, pi)
                except (sh.NotSolvableError, sh.NotPiValencedError):
                    continue
                assert s.hypergroup._closed is None
                want = {t.bits for t in sh.all_hall_subsets(whole, pi)}
                assert {t.bits for t in ctx.lifted} == want, (s.name, pi)
                pairs += 1
                narrowed += ctx.core.bits not in (1, s.hypergroup.full_mask)
    assert (pairs, narrowed) == (294, 122)


def test_a_core_that_is_no_pi_subset_fails_the_family_check(monkeypatch):
    """The check's candidates are the closed pi-subsets that contain
    the core, which the lemma at _HallContext needs to be a closed
    pi-subset.  A core that is not, here S4's {2}-core V4 swapped for
    A4, of valency 12, leaves no candidate, and the family check fires:
    with no lattice cached, as the walk first asks keep(core), and with
    the lattice cached, as no Hall subset of it contains A4."""
    a4 = next(c.bits for c in sh.from_group(sh.symmetric(4)).closed_subsets() if c.valency == 12)
    real_build = hall_module._core_and_halls

    def a4_core(scheme, ps, valenced):
        hq, halls, core = real_build(scheme, ps, valenced)
        assert core.valency == 4
        return hq, halls, sh.ClosedSubset(scheme.hypergroup, a4)

    monkeypatch.setattr(hall_module, "_core_and_halls", a4_core)
    for cached in (False, True):
        s4 = sh.from_group(sh.symmetric(4))
        if cached:
            s4.closed_subsets()
        with pytest.raises(sh.InternalInconsistencyError) as info:
            sh.find_hall(s4, {2})
        assert str(info.value) == "constructive Hall family differs from the exhaustive filter"
        assert (s4.hypergroup._closed is not None) == cached


def test_lifts_are_proved_hall_by_the_filter_equality(monkeypatch):
    """The context runs the Hall test only inside the exhaustive
    filter: with S4's lattice cached, once on each of the 6 of its 30
    closed subsets that contain the {2}-core V4, for pi = {2}, as the
    filter reads the cached lattice above the core alone; the filter's
    loop reads the valency of each, and of no other member.  A lift that
    is closed but not Hall (here every Hall subgroup of the quotient
    group is replaced by the core subgroup, O_2 = V4) is caught by the
    family's equality with that filter."""
    s4 = sh.from_group(sh.symmetric(4))
    lattice = s4.closed_subsets()
    members = {id(t) for t in lattice}
    calls = []
    real_valency = sh.ClosedSubset.valency

    def counted(subset):
        if id(subset) in members:
            calls.append(subset.bits)
        return real_valency.fget(subset)

    with monkeypatch.context() as m:
        m.setattr(sh.ClosedSubset, "valency", property(counted))
        cert = sh.find_hall(s4, {2})
    assert cert.hall.valency == 8 and cert.o_pi.valency == 4
    assert len(lattice) == 30
    above = [t.bits for t in lattice if not cert.o_pi.bits & ~t.bits]
    assert len(above) == 6
    assert sorted(calls) == sorted(above)

    real_build = hall_module._core_and_halls
    injected = []

    def core_subgroup_only(scheme, ps, valenced):
        hq, halls, core = real_build(scheme, ps, valenced)
        injected[:] = [functools.reduce(operator.and_, halls)] * len(halls)
        return hq, tuple(injected), core

    monkeypatch.setattr(hall_module, "_core_and_halls", core_subgroup_only)
    with pytest.raises(sh.InternalInconsistencyError) as info:
        sh.find_hall(sh.from_group(sh.symmetric(4)), {2})
    assert str(info.value) == "constructive Hall family differs from the exhaustive filter"
    assert len(injected) == 3 and injected[0].bit_count() == 4


def test_a_lift_that_is_not_closed_fails_the_filter_equality(monkeypatch):
    """No lifted Hall subset is checked closed on its own, and the
    family's equality with the exhaustive filter is checked before the
    conjugacy certificate reads any lift.  So a lift that is not closed
    (here S4's second Sylow 2-subgroup with its last element swapped for
    one outside it) fails with the filter's message, not with the
    certificate's."""
    real_build = hall_module._core_and_halls
    injected = []

    def one_non_subgroup(scheme, ps, valenced):
        hq, halls, core = real_build(scheme, ps, valenced)
        (first, h0), (second, h1), *rest = halls.items()
        top = 1 << (second.bit_length() - 1)
        outside = ~second & (second + 1)  # the least element outside it
        injected.append(second & ~top | outside)
        return hq, dict([(first, h0), (injected[0], h1), *rest]), core

    s4 = sh.from_group(sh.symmetric(4))
    monkeypatch.setattr(hall_module, "_core_and_halls", one_non_subgroup)
    with pytest.raises(sh.InternalInconsistencyError) as info:
        sh.find_hall(s4, {2})
    assert str(info.value) == "constructive Hall family differs from the exhaustive filter"
    assert injected[0].bit_count() == 8
    assert not s4.hypergroup.is_closed_mask(injected[0])


def test_a_core_that_is_not_strongly_normal_is_an_internal_error(monkeypatch):
    """A core lifted from neither 1 nor G is checked strongly normal:
    here S4's {2}-core, lifted from O_2 = V4, is swapped for the lift of
    a Sylow 2-subgroup, which is closed but not normal."""
    real = hall_module._lift

    def sylow_lift(q, bits):
        return real(q, next(iter(hall_module._hall_subgroups(q, frozenset({2})))))

    monkeypatch.setattr(hall_module, "_lift", sylow_lift)
    with pytest.raises(sh.InternalInconsistencyError) as info:
        sh.find_hall(sh.from_group(sh.symmetric(4)), {2})
    assert str(info.value) == "the pi-core must be strongly normal"


def test_the_greedy_hall_build_stalls_on_a_group_that_is_not_solvable():
    """The greedy build never stalls on a solvable group (P. Hall); A5,
    which the callers refuse as not solvable, has no Hall {3, 5}-subgroup,
    and the build stalls at a Sylow 3-subgroup."""
    with pytest.raises(sh.InternalInconsistencyError) as info:
        hall_module._hall_subgroups(sh.thin_hypergroup(sh.alternating(5)), frozenset({3, 5}))
    assert str(info.value) == (
        "no pi-subgroup of a solvable group of order 60 grows past order 3 towards 15"
    )


def test_extend_to_hall_needs_a_lifted_hall_subset_that_contains_the_seed():
    """Every closed pi-subset lies in some lifted Hall subset; a context
    that lost all but the first is an internal error on a seed that
    only a lost one contains."""
    s4 = sh.from_group(sh.symmetric(4))
    ctx = hall_module._context(s4, frozenset({2}))
    ctx.lifted = ctx.lifted[:1]
    seed = next(t for t in sh.all_hall_subsets(s4, {2}) if t.bits != ctx.lifted[0].bits)
    with pytest.raises(sh.InternalInconsistencyError) as info:
        sh.extend_to_hall(s4, seed, {2})
    assert str(info.value) == (
        "no lifted Hall subset contains the closed subset with relations "
        "[0, 2, 7, 10, 13, 16, 21, 23]"
    )


def test_context_validates_its_group_table_once(monkeypatch):
    assoc = []
    calls = []
    original_assoc = hypergroup_module._associativity_witness
    original = groups_module._proved_group

    def counted_assoc(t, gens):
        assoc.append(len(t))
        return original_assoc(t, gens)

    def counted(table, name):
        calls.append(len(table))
        return original(table, name)

    s4 = sh.from_group(sh.symmetric(4), name="s4")
    assert s4.hypergroup.size == 24
    # the group proof, hypergroup._prove_group, reads it from its own module
    monkeypatch.setattr(hypergroup_module, "_associativity_witness", counted_assoc)
    monkeypatch.setattr(groups_module, "_proved_group", counted)
    sh.find_hall(s4, {2})
    sh.find_hall(s4, {3})
    # the thin residue of S4 is {0}, and S4 // {0} is S4's own table,
    # checked when s4.hypergroup was built: group_from_thin reads it as
    # it stands, and both pi use it
    assert assoc == []
    assert calls == []
    sh.hall_subgroups(sh.symmetric(4), {2})
    assert calls == [24]
    assert assoc == [24]


def test_find_hall_on_a_group_scheme_validates_no_hypergroup(monkeypatch):
    """Once a group scheme's hypergroup is built, find_hall proves no
    hypergroup: its residue factor H // {0} is H itself."""
    calls = []
    original = hypergroup_module._prove

    def counted(hg, masks, inv):
        calls.append(hg.size)
        return original(hg, masks, inv)

    for key, module in list(sys.modules.items()):
        if key.startswith("schemehall.") and hasattr(module, "_prove"):
            monkeypatch.setattr(module, "_prove", counted)
    queries = 0
    for name in sh.bundled_group_names():
        s = sh.from_group(sh.bundled_group(name).table, name=name)
        assert s.hypergroup.size == s.n_points
        calls.clear()
        for p in sorted(s.primes):
            sh.find_hall(s, {p})
            queries += 1
        assert calls == [], name
    assert queries == 58


def test_hall_path_runs_the_derived_series_once(monkeypatch):
    """The residue series checks S4 // {0} solvable once; the Hall
    subgroups of each pi trust that check."""
    calls = []
    original = groups_module._derived_series

    def counted(hg):
        calls.append(hg.size)
        return original(hg)

    s4 = sh.from_group(sh.symmetric(4), name="s4")
    assert s4.hypergroup.size == 24
    monkeypatch.setattr(groups_module, "_derived_series", counted)
    monkeypatch.setattr(solvability_module, "_derived_series", counted)
    sh.find_hall(s4, {2})
    sh.find_hall(s4, {3})
    assert calls == [24]


def test_group_from_thin_reads_the_validated_group():
    for name in sh.bundled_group_names():
        t = sh.bundled_group(name).table
        assert sh.group_from_thin(sh.thin_hypergroup(t)) == sh.validate_group(t), name
    pentagon = sh.bundled_scheme("pentagon").scheme().hypergroup
    with pytest.raises(sh.NotAGroupError) as exc:
        sh.group_from_thin(pentagon)
    assert str(exc.value) == "product 1 * 1 is not a single element; hypergroup is not thin"


def test_group_from_thin_reads_no_table_for_a_group_scheme(monkeypatch):
    """Solvability and the Hall contexts compute on the thin hypergroups
    themselves, so neither reads an index table, on a group's scheme or
    on a wreath product whose residue factors _quotient proved."""
    reads = []
    real = hall_module._thin_index_table

    def counted(masks):
        reads.append(len(masks))
        return real(masks)

    monkeypatch.setattr(hall_module, "_thin_index_table", counted)
    s4 = sh.from_group(sh.symmetric(4))
    assert sh.is_solvable_scheme(s4)
    for pi in ({2}, {3}):
        sh.find_hall(s4, pi)
    wreath = sh.bundled_scheme("hm176_28").scheme()
    assert sh.is_solvable_scheme(wreath)
    sh.find_hall(wreath, {2})
    assert reads == []


def test_hall_valency_is_the_pi_part_of_n_on_products():
    """On wreath and tensor products of 14 to 96 points, every Hall
    pi-subset has valency the pi-part of n (its index is then a
    pi'-number); a scheme that is not solvable or not pi-valenced gets
    the matching error instead."""
    found = set()
    for name, m in product_matrices():
        s = sh.validate_scheme(m, name=name)
        solvable = sh.is_solvable_scheme(s)
        for pi in ALL_PI[1:]:
            if not sh.is_pi_valenced(s, pi):
                with pytest.raises(sh.NotPiValencedError):
                    sh.find_hall(s, pi)
            elif not solvable:
                with pytest.raises(sh.NotSolvableError):
                    sh.find_hall(s, pi)
            else:
                cert = sh.find_hall(s, pi)
                assert cert.hall.valency == sh.pi_part(s.n_points, pi), (name, pi)
                found.add((s.rank < s.n_points, s.n_points))
    assert {(True, 96), (False, 96), (True, 48), (False, 48)} <= found


def test_queries_read_the_verified_family_without_projecting(monkeypatch):
    s4 = sh.from_group(sh.symmetric(4), name="s4")
    sh.find_hall(s4, {2})
    calls = []
    real = quotient_module.project_closed

    def counted(q, subset):
        calls.append(1)
        return real(q, subset)

    monkeypatch.setattr(quotient_module, "project_closed", counted)
    # a by-name import of project_closed in hall would be counted too
    monkeypatch.setattr(hall_module, "project_closed", counted, raising=False)
    halls = sh.all_hall_subsets(s4, {2})
    for t in halls:
        for u in halls:
            sh.conjugating_element(s4, t, u, {2})
    extended = 0
    for t in s4.closed_subsets():
        if sh.pi_predicates(s4, t, {2}).is_closed_pi_subset:
            cert = sh.extend_to_hall(s4, t, {2})
            assert t.bits & ~cert.hall.bits == 0
            extended += 1
    assert extended > len(halls)
    assert calls == []


def test_sylow_counts_on_bundled_groups():
    cases = 0
    for name in sh.bundled_group_names():
        table = sh.bundled_group(name).table
        n = len(table)
        scheme = sh.from_group(table, name=name)
        for p in sorted(scheme.primes):
            count = len(sh.all_hall_subsets(scheme, {p}))
            assert count % p == 1 and n % count == 0, (name, p, count)
            cases += 1
    assert cases == 58


def test_not_pi_valenced_names_the_first_relation():
    """find_hall reads the relation it names off the cached mask of
    pi-valenced relations; the message is the one the first-relation
    scan over the valencies builds, on every scheme of the catalogue to
    order 28 and every pi it is not valenced for."""
    raised = 0
    for scheme in catalogue_schemes(28):
        for pi in ALL_PI:
            first = next(
                ((s, v) for s, v in enumerate(scheme.valencies) if not sh.is_pi_number(v, pi)),
                None,
            )
            if first is None:
                continue
            want = f"scheme is not {sh.format_pi(pi)}-valenced: relation {first[0]} has valency {first[1]}"
            with pytest.raises(sh.NotPiValencedError) as info:
                sh.find_hall(scheme, pi)
            assert str(info.value) == want, (scheme.name, sorted(pi))
            raised += 1
    assert raised == 1002


def test_hall_filter_walks_closed_pi_subsets_only():
    """all_hall_subsets on fresh schemes, with no lattice cached, against
    the filter over every closed subset: the same Hall subsets in the
    same order for every pi <= {2, 3, 5, 7} on the catalogue to order
    28 and the bundled groups, and no lattice is left cached."""
    fresh = [sf.scheme for order in sh.bundled_orders() if order <= 28 for sf in sh.bundled_catalogue(order)]
    fresh += [
        lambda name=name: sh.from_group(sh.bundled_group(name).table, name=name)
        for name in sh.bundled_group_names()
    ]
    pairs = 0
    for make in fresh:
        scheme = make()
        got = [tuple(t.bits for t in sh.all_hall_subsets(scheme, pi)) for pi in ALL_PI]
        assert scheme.hypergroup._closed is None, scheme.name
        want = [tuple(t.bits for t in hall_filter_lattice(scheme, pi)) for pi in ALL_PI]
        assert got == want, scheme.name
        pairs += len(ALL_PI)
    assert pairs == 2784


def test_extend_to_hall_matches_the_core_product_route():
    """extend_to_hall against the route through core * T, on every
    solvable pi-valenced scheme of the catalogue to order 12 and every
    bundled group scheme, for every pi and every closed pi-subset T:
    the same Hall subset and lifted subgroup, and core * T is closed
    (the oracle raises otherwise)."""
    schemes = [s for s in catalogue_schemes(12) if sh.is_solvable_scheme(s)]
    schemes += [sh.from_group(sh.bundled_group(n).table, name=n) for n in sh.bundled_group_names()]
    seeds = 0
    for scheme in schemes:
        for pi in ALL_PI:
            if not sh.is_pi_valenced(scheme, pi):
                continue
            for t in scheme.closed_subsets():
                if not sh.pi_predicates(scheme, t, pi).is_closed_pi_subset:
                    continue
                got = sh.extend_to_hall(scheme, t, pi)
                want = extend_via_core_product(scheme, t, pi)
                assert (got.hall.bits, got.lifted_subgroup) == (want.hall.bits, want.lifted_subgroup), (
                    scheme.name, sorted(pi), t.members(),
                )
                seeds += 1
    assert seeds == 5004


def test_extend_to_hall_multiplies_and_closes_nothing(monkeypatch):
    """Once find_hall has built the context, extend_to_hall makes no
    complex product and no closedness check."""
    s4 = sh.from_group(sh.symmetric(4), name="s4")
    sh.find_hall(s4, {2})
    seeds = [t for t in s4.closed_subsets() if sh.pi_predicates(s4, t, {2}).is_closed_pi_subset]
    calls = []
    hg_class = hypergroup_module.Hypergroup
    for name in ("mul_masks", "is_closed_mask"):
        real = getattr(hg_class, name)

        def counted(self, *args, real=real, name=name):
            calls.append(name)
            return real(self, *args)

        monkeypatch.setattr(hg_class, name, counted)
    for t in seeds:
        assert t.bits & ~sh.extend_to_hall(s4, t, {2}).hall.bits == 0
    assert len(seeds) > 3
    assert calls == []


def test_conjugating_element_is_the_least_conjugator():
    """conjugating_element answers conjugators(...)[0] on every Hall pair
    of criterion 2: every solvable catalogue scheme of order <= 12 and
    every pi it is pi-valenced for."""
    pairs = 0
    for scheme in catalogue_schemes(12):
        if not sh.is_solvable_scheme(scheme):
            continue
        for pi in ALL_PI:
            if not sh.is_pi_valenced(scheme, pi):
                continue
            halls = sh.all_hall_subsets(scheme, pi)
            for t in halls:
                for u in halls:
                    want = sh.conjugators(scheme, t, u)[0]
                    assert sh.conjugating_element(scheme, t, u, pi) == want, scheme.name
                    pairs += 1
    assert pairs > 500


def test_conjugating_element_stops_at_the_first_conjugator(s4_scheme, monkeypatch):
    """The 9 ordered pairs of S4's Sylow 2-subsets take 19 relation
    conjugations, each of the 6 pairs of two different subsets up to its
    least conjugator, not 9 * 24; the 3 pairs of a subset with itself
    take none, as relation 0 conjugates any subset onto itself."""
    halls = sh.all_hall_subsets(s4_scheme, {2})
    sh.find_hall(s4_scheme, {2})
    conjugations = []
    real = hypergroup_module._conjugates

    def counted(*args):
        for h, conj in real(*args):
            conjugations.append(h)
            yield h, conj

    monkeypatch.setattr(hypergroup_module, "_conjugates", counted)
    pairs = [(t, u) for t in halls for u in halls]
    answers = [sh.conjugating_element(s4_scheme, t, u, {2}) for t, u in pairs]
    assert answers == [0, 4, 2, 3, 0, 1, 2, 1, 0]
    off_diagonal = [a for a, (t, u) in zip(answers, pairs) if t != u]
    assert len(off_diagonal) == 6
    assert len(conjugations) == sum(a + 1 for a in off_diagonal) == 19


def test_conjugating_element_reports_each_failed_cross_check(s4_scheme, monkeypatch):
    halls = sh.all_hall_subsets(s4_scheme, {2})
    t, u = halls[0], halls[1]
    sh.find_hall(s4_scheme, {2})  # the context's own conjugacy check runs before the patch
    with monkeypatch.context() as m:
        m.setattr(hall_module, "_conjugators", lambda hg, a, b, within: iter(()))
        with pytest.raises(sh.NoConjugatorFoundError, match="no relation conjugates the first Hall subset"):
            sh.conjugating_element(s4_scheme, t, u, {2})
    # the conjugacy certificate is checked once, when the context is built:
    # the orbit's conjugator in G names a coset that must hold a relation
    # conjugating the first lifted Hall subset onto each later one; here
    # every orbit step is recorded as the neutral element, whose coset is {0}
    real_build = hall_module._core_and_halls

    def neutral_steps(scheme, ps, valenced):
        hq, halls, core = real_build(scheme, ps, valenced)
        return hq, dict.fromkeys(halls, 0), core

    with monkeypatch.context() as m:
        m.setattr(hall_module, "_core_and_halls", neutral_steps)
        with pytest.raises(sh.InternalInconsistencyError) as info:
            sh.find_hall(sh.from_group(sh.symmetric(4)), {2})
    assert str(info.value) == (
        "no member of the lifted conjugator coset conjugates the subsets directly"
    )
    assert sh.conjugating_element(s4_scheme, t, u, {2}) == 4


@pytest.mark.parametrize(
    "table, pi, k",
    [
        (sh.symmetric(4), {2}, 3),
        (sh.direct_product(sh.symmetric(4), sh.cyclic(2)), {3}, 4),
    ],
    ids=["s4-pi2", "s4xc2-pi3"],
)
def test_conjugacy_is_certified_once_per_family(table, pi, k, monkeypatch):
    """A context of k Hall subsets searches the quotient group for no
    conjugator at build, as the orbit that built each Hall subgroup kept
    its conjugator, and searches the scheme k - 1 times, over one coset
    each, for a relation conjugating the first lifted Hall subset onto
    each later one; conjugating_element searches the quotient group for
    none either."""
    calls = []
    real = hall_module._conjugators

    def counted(hg, a, b, within):
        calls.append((hg, a, b, within))
        return real(hg, a, b, within)

    monkeypatch.setattr(hall_module, "_conjugators", counted)
    scheme = sh.from_group(table)
    sh.find_hall(scheme, pi)
    ctx = scheme._pi_facts[frozenset(pi)].context
    assert [hg for hg, _, _, _ in calls if hg is ctx.hq] == []
    first = ctx.lifted[0].bits
    assert [(hg, a, b) for hg, a, b, _ in calls] == [
        (scheme.hypergroup, first, t.bits) for t in ctx.lifted[1:]
    ]
    assert all(within in ctx.hq.cosets for _, _, _, within in calls)
    assert len(ctx.halls) == k
    halls = sh.all_hall_subsets(scheme, pi)
    assert len(halls) == k
    calls.clear()
    for t in halls:
        for u in halls:
            g = sh.conjugating_element(scheme, t, u, pi)
            assert sh.conjugate_subset(scheme, t, g) == u
    assert [hg for hg, _, _, _ in calls if hg is ctx.hq] == []
