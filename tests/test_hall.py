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
from schemehall.groups import all_subgroups, is_solvable_group

from conftest import ALL_PI, catalogue_schemes, product_matrices
from oracles import (
    all_subgroups_scan,
    extend_via_core_product,
    hall_filter_lattice,
    hall_subgroups_full_orbit,
)

# the package's quotient function shadows its quotient module
quotient_module = importlib.import_module("schemehall.quotient")
hypergroup_module = importlib.import_module("schemehall.hypergroup")
solvability_module = importlib.import_module("schemehall.solvability")


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
    halls = sh.all_hall_subsets(s4_scheme, {2})
    with pytest.raises(sh.NotHallError):
        sh.conjugating_element(s4_scheme, s4_scheme.hypergroup.neutral_subset(), halls[0], {2})


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
    group and S4 x C2, for every pi of the primes of its order."""
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
                assert got == hall_subgroups_full_orbit(t, ps)
                cases += 1
    assert cases > 100


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
    built once per (scheme, pi & primes); a failed build is not cached."""
    calls = []
    original = hall_module._core_and_halls

    def counted(scheme, ps, valenced):
        calls.append(frozenset(ps))
        return original(scheme, ps, valenced)

    monkeypatch.setattr(hall_module, "_core_and_halls", counted)
    s4 = sh.from_group(sh.symmetric(4), name="s4")
    for pi in ({2}, {3}, {2}, {3}, {2, 11}, {2, 7}):
        sh.find_hall(s4, pi)
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


def test_context_build_masks_the_pi_valenced_relations_twice(monkeypatch):
    """A Hall context computes the pi-valenced mask once for itself and
    its core and Hall build, and all_hall_subsets once more for the
    exhaustive filter, which computes its own inputs: 2 calls for S4
    with pi = {2}, and none for a query on the cached context."""
    calls = []
    original = hall_module._pi_valenced_mask

    def counted(scheme, ps):
        calls.append(ps)
        return original(scheme, ps)

    monkeypatch.setattr(hall_module, "_pi_valenced_mask", counted)
    s4 = sh.from_group(sh.symmetric(4), name="s4")
    assert sh.find_hall(s4, {2}).hall.valency == 8
    assert calls == [frozenset({2})] * 2
    sh.find_hall(s4, {2})
    assert len(calls) == 2


def test_context_builds_one_quotient_and_no_thin_hypergroup(monkeypatch):
    """The residue series builds S4 // {0} once, and every pi reads its
    Hall structure off that one quotient."""
    quotients = []
    thin = []
    original_quotient = solvability_module.subquotient
    original_thin = groups_module.thin_hypergroup

    def counted_quotient(hg, outer, inner):
        quotients.append(inner.bits)
        return original_quotient(hg, outer, inner)

    def counted_thin(*args, **kwargs):
        thin.append(args)
        return original_thin(*args, **kwargs)

    monkeypatch.setattr(solvability_module, "subquotient", counted_quotient)
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


def test_lifts_are_proved_hall_by_the_filter_equality(monkeypatch):
    """The context runs the Hall test only inside the exhaustive
    filter: with S4's lattice cached, once on each of its 30 closed
    subsets for pi = {2}.  A lift that is closed but not Hall (here
    every Hall subgroup of the quotient group is replaced by the core
    subgroup, O_2 = V4) is caught by the family's equality with that
    filter."""
    s4 = sh.from_group(sh.symmetric(4))
    lattice = s4.closed_subsets()
    calls = []
    real_tests = hall_module._pi_tests

    def counted(scheme, subset, valenced, target):
        calls.append(subset.bits)
        return real_tests(scheme, subset, valenced, target)

    with monkeypatch.context() as m:
        m.setattr(hall_module, "_pi_tests", counted)
        cert = sh.find_hall(s4, {2})
    assert cert.hall.valency == 8
    assert len(lattice) == 30
    assert sorted(calls) == sorted(t.bits for t in lattice)

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
        top = 1 << (halls[1].bit_length() - 1)
        outside = ~halls[1] & (halls[1] + 1)  # the least element outside it
        injected.append(halls[1] & ~top | outside)
        return hq, (halls[0], injected[0]) + halls[2:], core

    s4 = sh.from_group(sh.symmetric(4))
    monkeypatch.setattr(hall_module, "_core_and_halls", one_non_subgroup)
    with pytest.raises(sh.InternalInconsistencyError) as info:
        sh.find_hall(s4, {2})
    assert str(info.value) == "constructive Hall family differs from the exhaustive filter"
    assert injected[0].bit_count() == 8
    assert not s4.hypergroup.is_closed_mask(injected[0])


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
    monkeypatch.setattr(hypergroup_module, "_associativity_witness", counted_assoc)
    monkeypatch.setattr(groups_module, "_associativity_witness", counted_assoc)
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
    """Once a group scheme's hypergroup is built, find_hall validates no
    hypergroup: its residue factor H // {0} is H itself."""
    calls = []
    original = hypergroup_module.validate_hypergroup

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key.startswith("schemehall.") and hasattr(module, "validate_hypergroup"):
            monkeypatch.setattr(module, "validate_hypergroup", counted)
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
    with pytest.raises(sh.InternalInconsistencyError) as exc:
        sh.group_from_thin(pentagon)
    assert str(exc.value) == "product 1 * 1 is not a single element; hypergroup is not thin"


def test_group_from_thin_reads_no_table_for_a_group_scheme(monkeypatch):
    """Solvability and the Hall contexts compute on the thin hypergroups
    themselves, so neither reads an index table, on a group's scheme or
    on a wreath product whose residue factors validate_hypergroup built."""
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
    """The 9 ordered pairs of S4's Sylow 2-subsets take 22 relation
    conjugations, each pair up to its least conjugator, not 9 * 24."""
    halls = sh.all_hall_subsets(s4_scheme, {2})
    sh.find_hall(s4_scheme, {2})
    conjugations = []
    real = hypergroup_module._conjugates

    def counted(*args):
        for h, conj in real(*args):
            conjugations.append(h)
            yield h, conj

    monkeypatch.setattr(hypergroup_module, "_conjugates", counted)
    answers = [sh.conjugating_element(s4_scheme, t, u, {2}) for t in halls for u in halls]
    assert answers == [0, 4, 2, 3, 0, 1, 2, 1, 0]
    assert len(conjugations) == sum(a + 1 for a in answers) == 22


def test_conjugating_element_reports_each_failed_cross_check(s4_scheme, monkeypatch):
    halls = sh.all_hall_subsets(s4_scheme, {2})
    t, u = halls[0], halls[1]
    sh.find_hall(s4_scheme, {2})  # the context's own conjugacy check runs before the patch
    with monkeypatch.context() as m:
        m.setattr(hall_module, "_conjugators", lambda hg, a, b, within: iter(()))
        with pytest.raises(sh.NoConjugatorFoundError, match="no relation conjugates the first Hall subset"):
            sh.conjugating_element(s4_scheme, t, u, {2})
    # the quotient-group route is checked once, when the context is built:
    # its search runs on the quotient G, the coset step on the scheme
    real = hall_module._conjugators

    def on_quotient(found):
        def patched(hg, a, b, within):
            return real(hg, a, b, within) if hg is fresh.hypergroup else iter(found)
        return patched

    for found, message in (
        ((), "quotient group route found no conjugator although a direct one exists"),
        ((0,), "no member of the lifted conjugator coset conjugates the subsets directly"),
    ):
        fresh = sh.from_group(sh.symmetric(4))
        with monkeypatch.context() as m:
            m.setattr(hall_module, "_conjugators", on_quotient(found))
            with pytest.raises(sh.InternalInconsistencyError) as info:
                sh.find_hall(fresh, {2})
        assert str(info.value) == message
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
    """A context of k Hall subsets searches the quotient group for k - 1
    conjugators at build, one onto each Hall subgroup after the first;
    conjugating_element searches it for none."""
    calls = []
    real = hall_module._conjugators

    def counted(hg, a, b, within):
        calls.append((hg, a, b))
        return real(hg, a, b, within)

    monkeypatch.setattr(hall_module, "_conjugators", counted)
    scheme = sh.from_group(table)
    sh.find_hall(scheme, pi)
    ctx, = scheme._hall_contexts.values()
    assert [(a, b) for hg, a, b in calls if hg is ctx.hq] == [
        (ctx.halls[0], gm) for gm in ctx.halls[1:]
    ]
    assert len(ctx.halls) == k
    halls = sh.all_hall_subsets(scheme, pi)
    assert len(halls) == k
    calls.clear()
    for t in halls:
        for u in halls:
            g = sh.conjugating_element(scheme, t, u, pi)
            assert sh.conjugate_subset(scheme, t, g) == u
    assert [hg for hg, _, _ in calls if hg is ctx.hq] == []
