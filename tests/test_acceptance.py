"""End-to-end acceptance checks, one test per numbered criterion.

The conftest hook prints one PASS/FAIL line per criterion after the
run.  Each test is exact: no tolerances, no sampling.  Runtime budgets
are asserted where a criterion carries one (criterion 1: under a
minute; criteria 2 and 4: under five minutes).
"""

import time
from functools import reduce

import pytest

import schemehall as sh

from conftest import ALL_PI, catalogue_schemes, corpus_hypergroups
from oracles import all_closed_subsets_scan, all_subgroups_scan


def test_criterion_1_order28_catalogue_scheme():
    start = time.monotonic()
    candidates = []
    for sf in sh.bundled_catalogue(28):
        scheme = sf.scheme()
        sizes = {scheme.hypergroup.valency_of_mask(cs.bits) for cs in scheme.closed_subsets()}
        if (
            sh.is_solvable_scheme(scheme)
            and sh.is_pi_valenced(scheme, {2})
            and 4 in sizes
            and 7 not in sizes
        ):
            candidates.append(scheme)
    assert len(candidates) == 1
    target = candidates[0]

    assert sh.is_solvable_scheme(target)
    assert sh.is_pi_valenced(target, {2})
    sizes = {target.hypergroup.valency_of_mask(cs.bits) for cs in target.closed_subsets()}
    assert 4 in sizes
    assert 7 not in sizes

    cert = sh.find_hall(target, {2})
    assert target.hypergroup.valency_of_mask(cert.hall.bits) == 4
    assert cert.index == 7
    assert time.monotonic() - start < 60


def test_criterion_2_hall_suite_on_corpus():
    start = time.monotonic()
    combos = 0
    for scheme in catalogue_schemes(12):
        if not sh.is_solvable_scheme(scheme):
            continue
        closed = scheme.closed_subsets()
        for pi in ALL_PI:
            if not sh.is_pi_valenced(scheme, pi):
                continue
            combos += 1
            ctx = f"{scheme.name} pi={sorted(pi)}"

            cert = sh.find_hall(scheme, pi)
            halls = sh.all_hall_subsets(scheme, pi)
            assert halls, ctx
            assert cert.hall in halls, ctx

            for t in halls:
                for u in halls:
                    g = sh.conjugating_element(scheme, t, u, pi)
                    moved = sh.conjugate_subset(scheme, t, g)
                    assert moved.bits == u.bits, f"{ctx}: {t} -> {u} via {g}"

            for t in closed:
                pp = sh.pi_predicates(scheme, t, pi)
                if not pp.is_closed_pi_subset:
                    continue
                ext = sh.extend_to_hall(scheme, t, pi)
                assert t.bits & ~ext.hall.bits == 0, f"{ctx}: {t} escapes its Hall"
                assert ext.hall in halls, ctx
    assert combos > 200  # the filter leaves plenty of real work
    assert time.monotonic() - start < 300


def test_criterion_3_group_correspondence():
    for name in sh.bundled_group_names():
        table = sh.bundled_group(name).table
        order = len(table)
        scheme = sh.from_group(table, name=name)
        for pi in ALL_PI:
            cert = sh.find_hall(scheme, pi)
            want = sh.pi_part(order, pi)
            got = scheme.hypergroup.valency_of_mask(cert.hall.bits)
            assert got == want, f"{name} pi={sorted(pi)}: |Hall|={got}, want {want}"

    s4 = sh.from_group(sh.bundled_group("s4").table, name="s4")
    halls = sh.all_hall_subsets(s4, {2})
    assert len(halls) == 3
    brute = sorted(
        m for m in all_subgroups_scan(sh.bundled_group("s4").table)
        if bin(m).count("1") == 8
    )
    assert sorted(h.bits for h in halls) == brute
    for t in halls:
        for u in halls:
            g = sh.conjugating_element(s4, t, u, {2})
            assert sh.conjugate_subset(s4, t, g).bits == u.bits


def _low(mask: int) -> int:
    """The least member of a mask."""
    return (mask & -mask).bit_length() - 1


def _natural_isomorphism(source, target, mapping) -> None:
    """mapping is a homomorphism from source onto target and a bijection."""
    sh.validate_homomorphism(source, target, mapping)
    assert sorted(mapping) == list(range(target.size)), f"not a bijection: {mapping}"


def test_criterion_4_isomorphism_statements():
    """Each statement is witnessed by its natural map, which sends a
    coset to the image of its least member, checked as a bijective
    homomorphism: no search."""
    start = time.monotonic()
    first = second = third = 0
    for hg in corpus_hypergroups(24):
        universe = hg.universe()
        closed = list(sh.enumerate_closed_subsets(hg))
        normal = [e for e in closed if sh.is_normal_in(e, universe)]

        # homomorphism route: identity, one-step and two-step collapses
        homs = [sh.validate_homomorphism(hg, hg, tuple(hg.elements))]
        for e in normal:
            q = sh.quotient(hg, e)
            homs.append(sh.validate_homomorphism(hg, q, q.coset_of))
        for d in normal:
            qd = sh.quotient(hg, d)
            for e in normal:
                if not d.issubset(e) or d.bits == e.bits:
                    continue
                qe = sh.quotient(qd, sh.project_closed(qd, e))
                mapping = tuple(qe.coset_of[qd.coset_of[h]] for h in hg.elements)
                homs.append(sh.validate_homomorphism(hg, qe, mapping))

        # H // ker phi -> im phi
        for phi in homs:
            ker = sh.kernel(phi)
            assert sh.is_normal_in(ker, phi.source.universe()), hg.name
            image = sorted(set(phi.mapping))
            im_closed = phi.target.subset(image)
            assert im_closed.is_closed(), hg.name
            im_hg = sh.subquotient(phi.target, im_closed, phi.target.neutral_subset())
            q = sh.quotient(phi.source, ker)
            mapping = tuple(im_hg.coset_of[phi.mapping[_low(c)]] for c in q.cosets)
            _natural_isomorphism(q, im_hg, mapping)
            first += 1

        # (H // D) // (E // D) -> H // E
        for d in closed:
            qd = sh.quotient(hg, d)
            for e in normal:
                if not d.issubset(e):
                    continue
                big = sh.quotient(qd, sh.project_closed(qd, e))
                direct = sh.quotient(hg, e)
                mapping = tuple(direct.coset_of[_low(qd.cosets[_low(c)])] for c in big.cosets)
                _natural_isomorphism(big, direct, mapping)
                second += 1

        # D // (E meet D) -> ED // E, for D normalizing E
        for d in closed:
            for e in closed:
                if not sh.normalizes(d, e):
                    continue
                ed = hg.mul_masks(e.bits, d.bits)
                assert hg.is_closed_mask(ed), hg.name
                ed_sub = sh.ClosedSubset(hg, ed)
                assert sh.is_normal_in(e, ed_sub), hg.name
                meet = sh.ClosedSubset(hg, e.bits & d.bits)
                assert sh.is_normal_in(meet, d), hg.name
                left = sh.subquotient(hg, ed_sub, e)
                right = sh.subquotient(hg, d, meet)
                mapping = tuple(left.coset_of[_low(c)] for c in right.cosets)
                _natural_isomorphism(right, left, mapping)
                third += 1
    assert (first, second, third) == (1675, 1795, 4807)
    assert time.monotonic() - start < 300


def test_criterion_5_quotient_coincidence_and_valency_law():
    for scheme in catalogue_schemes(12):
        hg = scheme.hypergroup
        rank = len(scheme.valencies)
        for t in scheme.closed_subsets():
            q = sh.quotient_scheme(scheme, t)
            hq = sh.quotient(hg, t)
            assert q.hypergroup.table == hq.table, (
                f"{scheme.name}: T={t.bits:#x}"
            )
            n_t = scheme.hypergroup.valency_of_mask(t.bits)
            for s in range(rank):
                tst = hg.mul_masks(hg.mul_masks(t.bits, 1 << s), t.bits)
                image_valency = q.valencies[q.hypergroup.coset_of[s]]
                assert image_valency * n_t == scheme.hypergroup.valency_of_mask(tst), (
                    f"{scheme.name}: T={t.bits:#x} s={s}"
                )


def test_criterion_6_power_set_oracle_agreement():
    extras = [
        sh.bundled_scheme(n).scheme().hypergroup
        for n in sh.bundled_scheme_names()
    ]
    pool = {
        (hg.table, hg.inverse): hg
        for hg in (*corpus_hypergroups(12), *extras)
        if hg.size <= 12
    }
    for hg in pool.values():
        scan = all_closed_subsets_scan(hg)
        fast = sh.enumerate_closed_subsets(hg)
        assert [c.bits for c in scan] == [c.bits for c in fast], hg.name
        closed_bits = [c.bits for c in scan]
        for bits in range(1, 1 << hg.size):
            want = reduce(
                lambda x, y: x & y,
                (c for c in closed_bits if not bits & ~c),
            )
            assert sh.closure(hg.subset(bits)).bits == want, (
                f"{hg.name}: closure({bits:#x})"
            )


def test_criterion_7_lemma_battery():
    import test_lemma_battery as battery

    h8 = corpus_hypergroups(8)
    h10 = corpus_hypergroups(10)
    c12 = catalogue_schemes(12)
    for name in dir(battery):
        if not name.startswith("test_"):
            continue
        fn = getattr(battery, name)
        args = fn.__code__.co_varnames[: fn.__code__.co_argcount]
        fixture = {"hypergroups8": h8, "hypergroups10": h10, "corpus12": c12}
        fn(*(fixture[a] for a in args))
