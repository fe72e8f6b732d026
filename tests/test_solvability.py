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
    """Each step's prime is the order of its quotient, outer // inner."""
    c6 = sh.thin_hypergroup(sh.cyclic(6))
    chain = sh.solvable_chain(c6)
    for inner, outer, p in zip(chain.subsets, chain.subsets[1:], chain.step_primes):
        assert sh.subquotient(c6, outer, inner).size == p


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
    monkeypatch.setattr(solvability, "_double_cosets", lambda hg, f, domain: [f] * 4)
    sq = sh.validate_hypergroup(SQUARE, name="square")
    with pytest.raises(
        sh.InternalInconsistencyError,
        match="strongly normal cover step has 4 double cosets, not a prime",
    ):
        sh.solvable_chain(sq)


def test_non_thin_residue_factor_is_an_internal_error(monkeypatch):
    """Each residue factor is checked thin, the strong-normality check of
    its step: a factor that is not, here the pentagon in place of S4's
    factor S4 // {0}, means the engine broke, and the error names it."""
    pentagon = sh.validate_hypergroup(PENTAGON, name="pentagon")
    monkeypatch.setattr(solvability, "_quotient", lambda hg, outer, modulus, name: pentagon)
    s4 = sh.from_group(sh.symmetric(4))
    with pytest.raises(sh.InternalInconsistencyError) as exc:
        sh.is_solvable_scheme(s4)
    assert str(exc.value) == "residue factor pentagon is not thin"


def test_a_chain_step_that_is_not_strongly_normal_is_an_internal_error(monkeypatch):
    """Each chain step is checked strongly normal: S3 refined through a
    transposition's subgroup, {0} < {0, 1} < S3, has prime indices 2
    and 3, but {0, 1} is not normal in S3."""
    s3 = sh.thin_hypergroup(sh.symmetric(3))
    assert s3.table[1][1] == 1  # 1 is an involution
    monkeypatch.setattr(solvability, "_prime_series", lambda q: [1, 0b11, q.full_mask])
    with pytest.raises(sh.InternalInconsistencyError) as info:
        sh.solvable_chain(s3)
    assert str(info.value) == "chain step {0, 1} is not strongly normal in {0, 1, 2, 3, 4, 5}"


def test_scheme_chain_valency_check_runs_once(monkeypatch):
    """Once per call: no chain is cached on the scheme, so each call
    refines the series afresh to the same chain and reads the valency
    of each of its subsets once."""
    scheme = sh.from_group(sh.symmetric(4))
    calls = []
    original = sh.Hypergroup.valency_of_mask

    def counted(self, mask):
        calls.append(mask)
        return original(self, mask)

    monkeypatch.setattr(sh.Hypergroup, "valency_of_mask", counted)
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


def test_chain_subsets_are_lifted_with_no_input_check(monkeypatch):
    """Each subset above {0} is the _lift image of a subgroup of a
    residue factor, which checks it closed in the scheme's hypergroup:
    one call per chain step.  The subgroups are closure_mask results,
    proved closed by its exit test, so no is_closed_mask call lands on a
    residue factor, as lift_closed's input check would make."""
    hg = sh.bundled_scheme("hm176_28").scheme().hypergroup
    factors = solvability._residue_series(hg)
    calls = []
    checked = []
    original = solvability._lift
    original_closed = sh.Hypergroup.is_closed_mask

    def counted(q, bits):
        lifted = original(q, bits)
        calls.append(lifted.bits)
        return lifted

    def counted_closed(self, mask):
        checked.append(self)
        return original_closed(self, mask)

    monkeypatch.setattr(solvability, "_lift", counted)
    monkeypatch.setattr(sh.Hypergroup, "is_closed_mask", counted_closed)
    chain = sh.solvable_chain(hg)
    assert chain.step_primes == (2, 2, 7)
    assert calls == [c.bits for c in chain.subsets[1:]]
    assert len(checked) == len(calls) and all(h is hg for h in checked)
    assert not any(h is q for h in checked for q in factors)
    assert chain.subsets[0] == hg.neutral_subset()
