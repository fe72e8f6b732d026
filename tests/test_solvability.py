"""Solvability chains, checked against the exhaustive bitmask scan.

Frozen facts:

* The pentagon (5-cycle distance hypergroup) has no proper nontrivial
  closed subset and its three elements are not a thin prime group, so
  it is not solvable.
* C6 is solvable through {0} < {0,3} < C6 with step primes (2, 3).
* S4 is solvable through the usual subgroup ladder 1 < 2 < 4 < 12 < 24
  with step primes (2, 2, 3, 2).
* A5 is a thin group that is not solvable.
"""

import pytest

import schemehall as sh
from schemehall import solvability

from oracles import solvable_chain_scan

PENTAGON = [[{0}, {1}, {2}], [{1}, {0, 2}, {1, 2}], [{2}, {1, 2}, {0, 1}]]
SQUARE = [[{0}, {1}, {2}], [{1}, {0, 2}, {1}], [{2}, {1}, {0}]]


def test_pentagon_not_solvable():
    pent = sh.validate_hypergroup(PENTAGON, name="pentagon")
    assert sh.solvable_chain(pent) is None
    assert not sh.is_solvable(pent)
    assert solvable_chain_scan(pent) is None


def test_square_chain():
    sq = sh.validate_hypergroup(SQUARE, name="square")
    chain = sh.solvable_chain(sq)
    assert chain is not None
    assert [tuple(s.members()) for s in chain.subsets] == [(0,), (0, 2), (0, 1, 2)]
    assert chain.step_primes == (2, 2)


def test_c6_chain():
    c6 = sh.thin_hypergroup(sh.cyclic(6), name="c6")
    chain = sh.solvable_chain(c6)
    assert [tuple(s.members()) for s in chain.subsets] == [
        (0,),
        (0, 3),
        (0, 1, 2, 3, 4, 5),
    ]
    assert chain.step_primes == (2, 3)
    assert solvable_chain_scan(c6) == [1, 0b001001, 0b111111]


def test_s4_chain_orders():
    s4 = sh.thin_hypergroup(sh.symmetric(4), name="s4")
    chain = sh.solvable_chain(s4)
    assert [len(s) for s in chain.subsets] == [1, 2, 4, 12, 24]
    assert chain.step_primes == (2, 2, 3, 2)


def test_a5_not_solvable():
    a5 = sh.thin_hypergroup(sh.alternating(5), name="a5")
    assert not sh.is_solvable(a5)


def test_step_quotient_order_matches_chain():
    c6 = sh.thin_hypergroup(sh.cyclic(6))
    chain = sh.solvable_chain(c6)
    for inner, outer, p in zip(chain.subsets, chain.subsets[1:], chain.step_primes):
        assert sh.step_quotient_order(c6, inner.bits, outer.bits) == p


def test_chain_steps_are_strongly_normal_and_prime():
    """Every reported chain must consist of nested closed subsets where
    each member sits strongly normally inside the next and the quotient
    there has prime order."""
    for n in (2, 3, 4, 5, 6, 8, 12):
        hg = sh.thin_hypergroup(sh.cyclic(n))
        chain = sh.solvable_chain(hg)
        assert chain is not None
        assert chain.subsets[0].bits == 1
        assert chain.subsets[-1].bits == hg.full_mask
        for inner, outer in zip(chain.subsets, chain.subsets[1:]):
            assert inner.issubset(outer)
            assert sh.is_strongly_normal(inner, outer)
        for p in chain.step_primes:
            assert sh.is_prime(p)


def test_scan_agreement_on_small_hypergroups(hypergroups8):
    for hg in hypergroups8:
        got = sh.solvable_chain(hg)
        expected = solvable_chain_scan(hg)
        assert (got is None) == (expected is None), hg.name


def test_solvable_memoized():
    c6 = sh.thin_hypergroup(sh.cyclic(6))
    assert sh.is_solvable(c6)
    assert sh.is_solvable(c6)  # second call hits the cache


def test_non_prime_cover_step_is_an_internal_error(monkeypatch):
    """A cover step's quotient has no closed subsets but its two ends, so
    its order is prime; a composite count means the engine broke."""
    monkeypatch.setattr(solvability, "step_quotient_order", lambda hg, inner, outer: 4)
    sq = sh.validate_hypergroup(SQUARE, name="square")
    with pytest.raises(
        sh.InternalInconsistencyError,
        match="strongly normal cover step has 4 double cosets, not a prime",
    ):
        sh.solvable_chain(sq)


def test_scheme_chain_valency_check_runs_once(monkeypatch):
    """Once per call: no chain is cached on the scheme, so each call
    refines the series afresh to the same chain and reads the valency
    of each of its subsets once."""
    scheme = sh.from_group(sh.symmetric(4))
    calls = []
    original = sh.AssociationScheme.valency_of_mask

    def counted(self, mask):
        calls.append(mask)
        return original(self, mask)

    monkeypatch.setattr(sh.AssociationScheme, "valency_of_mask", counted)
    chains = []
    for _ in range(3):
        calls.clear()
        chains.append(sh.solvable_chain_scheme(scheme))
        assert calls == [c.bits for c in chains[-1].subsets]
    first = chains[0]
    assert len(first.subsets) == 5
    for chain in chains[1:]:
        assert chain.subsets == first.subsets
        assert chain.step_primes == first.step_primes == (2, 2, 3, 2)
