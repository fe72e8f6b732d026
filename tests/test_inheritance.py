"""Hall subsets inherited by normal closed subsets and their quotients.

Let S be solvable and pi-valenced, H run over its Hall pi-subsets and T
be a closed subset normal in S.  Then

  (a) the Hall pi-subsets of the subscheme T are exactly the sets H ∩ T;
  (b) the Hall pi-subsets of S // T are exactly the images of the H.

For groups, with N normal in G and H Hall in G, H ∩ N is Hall in N and
HN / N is Hall in G / N, and Hall's existence and conjugacy theorems
make the sets coincide (Gorenstein, Finite Groups, 1968, chapter 6).
Here both laws are checked exhaustively on the residue corpus, for every
pi that is a nonempty proper subset of the primes of n on which S is
solvable and pi-valenced, and every closed T other than {0} and S.  The
Hall subsets of T are the closed subsets of S inside T, which are the
closed subsets of the subscheme, whose valency is the pi-part of T's;
S // T is quotient_scheme's.  Normality is what the laws need: on
scheme6_7 below, T = {0, 3} is not normal, and (b) fails.
"""
from __future__ import annotations

import functools
import itertools

import schemehall as sh
from schemehall.arith import prime_factors
from schemehall.hypergroup import bits_of, mask_of

from conftest import residue_corpus


def _images(q: sh.AssociationScheme, halls) -> set[int]:
    """For each H, the mask of the relations of q, the cosets, that H meets."""
    coset_of = q.hypergroup.coset_of
    return {mask_of(coset_of[x] for x in bits_of(h.bits)) for h in halls}


@functools.cache
def triples() -> tuple:
    """(S, pi, T, the Hall pi-subsets of S, whether T is normal in S)
    for every triple in scope, normal or not."""
    out = []
    for s in residue_corpus():
        primes = prime_factors(s.n_points)
        if len(primes) < 2 or not sh.is_solvable_scheme(s):
            continue
        universe = s.hypergroup.universe()
        closed = s.closed_subsets()
        for k in range(1, len(primes)):
            for pi in map(frozenset, itertools.combinations(primes, k)):
                if not sh.is_pi_valenced(s, pi):
                    continue
                halls = sh.all_hall_subsets(s, pi)
                for t in closed:
                    if t.bits in (1, universe.bits):
                        continue
                    out.append((s, pi, t, halls, sh.is_normal_in(t, universe)))
    return tuple(out)


def _hall_in(s: sh.AssociationScheme, t: sh.ClosedSubset, pi: frozenset[int]) -> set[int]:
    """The Hall pi-subsets of the subscheme T, as masks over S's relations."""
    target = sh.pi_part(t.valency, pi)
    return {c.bits for c in s.closed_subsets() if not c.bits & ~t.bits and c.valency == target}


def test_hall_subsets_of_a_normal_closed_subset_are_the_intersections():
    normal = [(s, pi, t, halls) for s, pi, t, halls, is_normal in triples() if is_normal]
    assert len(normal) == 392
    for s, pi, t, halls in normal:
        assert _hall_in(s, t, pi) == {h.bits & t.bits for h in halls}, (s.name, pi, t)


def test_hall_subsets_of_a_normal_quotient_are_the_images():
    for s, pi, t, halls, is_normal in triples():
        if is_normal:
            q = sh.quotient_scheme(s, t)
            assert sh.is_pi_valenced(q, pi), (s.name, pi, t)
            want = {c.bits for c in sh.all_hall_subsets(q, pi)}
            assert want == _images(q, halls), (s.name, pi, t)


def test_the_intersection_law_needs_normality():
    """Of the 364 triples with T not normal, law (a) fails on 172."""
    other = [(s, pi, t, halls) for s, pi, t, halls, is_normal in triples() if not is_normal]
    assert len(other) == 364
    fails = sum(_hall_in(s, t, pi) != {h.bits & t.bits for h in halls} for s, pi, t, halls in other)
    assert fails == 172


def test_scheme6_7_quotient_by_a_closed_subset_that_is_not_normal():
    """T = {0, 3} is not normal in scheme6_7; the images of its two Hall
    {2}-subsets are the masks 1 and 3, but S // T has one Hall
    {2}-subset, mask 1."""
    s = next(s for s in residue_corpus() if s.name == "scheme6_7")
    t = s.closed_subset([0, 3])
    assert not sh.is_normal_in(t, s.hypergroup.universe())
    halls = sh.all_hall_subsets(s, {2})
    q = sh.quotient_scheme(s, t)
    assert _images(q, halls) == {1, 3}
    assert [c.bits for c in sh.all_hall_subsets(q, {2})] == [1]


def test_every_hall_subset_holds_each_normal_closed_pi_subset_above_the_residue():
    """The lemma the Hall context's check rests on, by exhaustion: for S
    solvable and pi-valenced, every Hall pi-subset contains every closed
    pi-subset N that is normal in S and contains O^θ(S).  The pi-core
    is one such N, and holds every other.  Every solvable scheme of the
    residue corpus and every nonempty pi over the primes of n and the
    valencies on which it is pi-valenced: 689 (S, pi, N) triples, 441
    of them with an N other than {0} and S, over 209 (S, pi) pairs."""
    triples = proper = pairs = 0
    for s in residue_corpus():
        if not sh.is_solvable_scheme(s):
            continue
        universe = s.hypergroup.universe()
        theta = sh.theta_core(s.hypergroup).bits
        above = [
            c for c in s.closed_subsets()
            if not theta & ~c.bits and sh.is_normal_in(c, universe)
        ]
        primes = sorted(s.primes)
        for k in range(1, len(primes) + 1):
            for pi in map(frozenset, itertools.combinations(primes, k)):
                if not sh.is_pi_valenced(s, pi):
                    continue
                halls = sh.all_hall_subsets(s, pi)
                assert halls, (s.name, pi)
                core = sh.find_hall(s, pi).o_pi.bits
                ns = [c.bits for c in above if sh.is_pi_number(c.valency, pi)]
                assert core in ns, (s.name, pi)
                for n in ns:
                    assert all(not n & ~h.bits for h in halls), (s.name, pi, n)
                    assert not n & ~core, (s.name, pi, n)
                pairs += 1
                triples += len(ns)
                proper += sum(n not in (1, universe.bits) for n in ns)
    assert (triples, proper, pairs) == (689, 441, 209)
