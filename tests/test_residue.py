"""The thin-residue engine against the lattice walks it replaced.

The corpus is the catalogue to order 28, the twelve product schemes,
the thin schemes of the 38 bundled groups and of A5: 187 schemes, 72
of them not solvable.  On each, the residue closure is the lattice theta
core, residue solvability agrees with the cover search, and for every
pi the scheme meets the hypotheses for, the pi-core is the largest
subnormal closed pi-subset and the lifted Hall family is the exhaustive
filter.  The solvable chain refined from the residue series is checked
step by step, and P. Hall's criterion is checked on the group schemes.
Each residue factor equals the quotient of a validated restriction copy.
"""

import importlib
import sys

import schemehall as sh
from schemehall import hall as hall_module
from schemehall.solvability import _residue_series

from conftest import ALL_PI, group_schemes, product_matrices, residue_corpus as corpus
from oracles import o_pi_lattice, solvable_chain_dfs, subquotient_over_parent, theta_core_lattice


def test_corpus_size():
    schemes = corpus()
    assert len(schemes) == 187
    assert sum(not sh.is_solvable_scheme(s) for s in schemes) == 72


def test_residue_is_the_lattice_theta_core_and_decides_solvability():
    for s in corpus():
        hg = s.hypergroup
        assert sh.theta_core(hg) == theta_core_lattice(hg), s.name
        assert sh.is_solvable_scheme(s) == (solvable_chain_dfs(hg) is not None), s.name


def test_residue_factors_match_the_restriction_copy():
    factors = 0
    for s in corpus():
        hg = s.hypergroup
        for q, table in _residue_series(hg) or ():
            outer = sh.ClosedSubset(hg, sum(q.cosets))
            got = (q.table, q.inverse, q.cosets, q.coset_of)
            assert got == subquotient_over_parent(hg, outer, q.modulus), s.name
            assert table == sh.group_from_thin(q), s.name
            factors += 1
    assert factors == 178


def test_core_and_family_match_the_lattice():
    pairs = 0
    for s in corpus():
        if not sh.is_solvable_scheme(s):
            continue
        for pi in ALL_PI:
            if not sh.is_pi_valenced(s, pi):
                continue
            assert sh.compute_o_pi(s, pi).bits == o_pi_lattice(s, pi), (s.name, sorted(pi))
            lifted = {t.bits for t in hall_module._context(s, pi).lifted}
            assert lifted == {t.bits for t in sh.all_hall_subsets(s, pi)}, (s.name, sorted(pi))
            pairs += 1
    assert pairs == 1420


def test_chain_steps_are_strongly_normal_with_prime_valency_index():
    for s in corpus():
        chain = sh.solvable_chain_scheme(s)
        if chain is None:
            continue
        hg = s.hypergroup
        assert chain.subsets[0].bits == 1 and chain.subsets[-1].bits == hg.full_mask
        for lo, hi, p in zip(chain.subsets, chain.subsets[1:], chain.step_primes):
            assert sh.is_strongly_normal(lo, hi), s.name
            order = sh.step_quotient_order(hg, lo.bits, hi.bits)
            assert sh.is_prime(order) and order == p, s.name
            assert s.valency_of_mask(hi.bits) == order * s.valency_of_mask(lo.bits), s.name


def test_p_hall_criterion_on_group_schemes():
    """P. Hall (1937): a finite group is solvable exactly when it has a
    Hall p'-subgroup for every prime p dividing its order."""
    for s in group_schemes():
        primes = frozenset(sh.prime_factors(s.n_points))
        every = all(sh.all_hall_subsets(s, primes - {p}) for p in primes)
        assert sh.is_solvable_scheme(s) == every, s.name


def test_solvability_and_core_walk_no_lattice(monkeypatch):
    """On a fresh scheme neither is_solvable_scheme nor compute_o_pi
    enumerates closed subsets or asks for subnormality; the two product
    schemes have residue series of four and five factors."""
    calls = []

    def counting(name, original):
        def counted(*args):
            calls.append(name)
            return original(*args)
        return counted

    hypergroup_module = importlib.import_module("schemehall.hypergroup")
    for name in ("enumerate_closed_subsets", "is_subnormal"):
        wrapper = counting(name, getattr(hypergroup_module, name))
        for key, module in list(sys.modules.items()):
            if key.startswith("schemehall.") and hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    cases = [
        (sh.from_group(sh.symmetric(4)), ({2}, {3}, {2, 3})),
        (sh.bundled_scheme("hm176_28").scheme(), ({2}, {2, 7})),
        (sh.validate_scheme(product_matrices()[2][1]), ({2}, {2, 3})),
        (sh.validate_scheme(product_matrices()[6][1]), ({2, 3},)),
    ]
    for s, pis in cases:
        assert sh.is_solvable_scheme(s)
        for pi in pis:
            sh.compute_o_pi(s, pi)
    assert calls == []


def test_each_residue_factor_is_validated_once(monkeypatch):
    """On a fresh scheme with its hypergroup built, is_solvable_scheme
    validates each residue factor once, never on the set-valued path,
    and restricts nothing; the wreath products have five and four
    factors."""
    calls = []

    def counting(module_name, name):
        original = getattr(importlib.import_module(module_name), name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.startswith("schemehall.") and hasattr(module, name):
                monkeypatch.setattr(module, name, counted)

    counting("schemehall.hypergroup", "validate_hypergroup")
    counting("schemehall.hypergroup", "_h1_witness")
    counting("schemehall.quotient", "restriction")
    cases = [
        (sh.bundled_scheme("hm176_28").scheme(), 2),
        (sh.validate_scheme(product_matrices()[6][1]), 5),
        (sh.validate_scheme(product_matrices()[2][1]), 4),
    ]
    for s, factors in cases:
        assert s.hypergroup.size > 1
        calls.clear()
        assert sh.is_solvable_scheme(s)
        assert calls == ["validate_hypergroup"] * factors, s.name
