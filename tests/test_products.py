"""Laws of wreath and tensor products, checked at any order.

Above order 12 the other suites check Hall answers only against
"valency = pi-part of n".  The answers for a product of two schemes
follow from the answers for its factors, which are cheap to compute, so
each law below is checked on every ordered pair of a pool of eight
factors (64 pairs) and once at scale.  The pool is C2, C3, C4, S3 and
D8, whose thin schemes are solvable, and the rank-2 schemes K3, K4 and
K5, which are not.  A law that fails on some input is a finding about
the library, not a test to weaken.
"""
from __future__ import annotations

import functools
import itertools

import pytest

import schemehall as sh
from schemehall.arith import prime_factors


def complete(n: int) -> sh.AssociationScheme:
    """K_n: one relation for every pair of distinct points."""
    return sh.validate_scheme([[int(x != y) for y in range(n)] for x in range(n)], name=f"K{n}")


@functools.cache
def pool() -> dict[str, sh.AssociationScheme]:
    return {
        "C2": sh.from_group(sh.cyclic(2), name="C2"),
        "C3": sh.from_group(sh.cyclic(3), name="C3"),
        "C4": sh.from_group(sh.cyclic(4), name="C4"),
        "S3": sh.from_group(sh.symmetric(3), name="S3"),
        "D8": sh.from_group(sh.dihedral(4), name="D8"),
        "K3": complete(3),
        "K4": complete(4),
        "K5": complete(5),
    }


PAIRS = list(itertools.product(["C2", "C3", "C4", "S3", "D8", "K3", "K4", "K5"], repeat=2))


@functools.cache
def hall_count(name: str, p: int) -> int:
    return len(sh.all_hall_subsets(pool()[name], {p}))


def test_the_pool_has_solvable_and_unsolvable_factors():
    solvable = {name for name, s in pool().items() if sh.is_solvable_scheme(s)}
    assert solvable == {"C2", "C3", "C4", "S3", "D8"}
    assert len(PAIRS) == 64


@pytest.mark.parametrize("inner, outer", PAIRS)
def test_wreath_closed_subsets_add(inner, outer):
    """c(S wr T) = c(S) + c(T) - 1, with S the inner factor.

    In S wr T each point of T carries a block shaped like S, a pair
    inside a block keeps its S relation, and a pair across blocks sees
    only the T relation of its blocks.  A closed subset with no cross
    relation is a closed subset of S.  A closed subset with a cross
    relation t contains t* t, and since t joins a point to every point
    of a block, t* t holds every relation of S; so it is S together with
    the cross relations of a closed U != {0} of T, and each such U gives
    one.  That is c(S) + (c(T) - 1) closed subsets.
    """
    s, t = pool()[inner], pool()[outer]
    w = sh.validate_scheme(sh.wreath_matrix(s, t))
    assert len(w.closed_subsets()) == len(s.closed_subsets()) + len(t.closed_subsets()) - 1


@pytest.mark.parametrize("left, right", PAIRS)
def test_products_are_solvable_iff_both_factors_are(left, right):
    """S wr T and S (x) T are solvable iff S and T are.

    In either product the relations (s, 0) of S form a closed subset N
    whose restriction to a block is S, and the quotient by N is T.
    Solvability passes to a closed subset and to a quotient, which gives
    "only if".  For "if", a solvable chain of S, followed by the lift
    through N of a solvable chain of T, is a solvable chain of the
    product: a step T1 < T2 above N has the thin quotient T2 // T1 that
    it has in T.
    """
    s, t = pool()[left], pool()[right]
    both = sh.is_solvable_scheme(s) and sh.is_solvable_scheme(t)
    assert sh.is_solvable_scheme(sh.validate_scheme(sh.wreath_matrix(s, t))) == both
    assert sh.is_solvable_scheme(sh.validate_scheme(sh.tensor_matrix(s, t))) == both


@pytest.mark.parametrize("left, right", PAIRS)
def test_tensor_hall_counts_multiply(left, right):
    """For each prime p of n, #Hall{p}(S (x) T) = #Hall{p}(S) * #Hall{p}(T).

    A relation (s, t) of S (x) T has valency n_s n_t, and U (x) V is
    closed of valency n_U n_V for closed U of S and V of T; so U (x) V
    is Hall when U and V are.  Conversely, let H be Hall, and U and V
    the sets of first and second coordinates of its relations.  They
    are closed, and their relations have p-power valencies, so n_U and
    n_V are powers of p (a closed subset whose relations have p-power
    valencies has p-power valency) dividing n_S and n_T.  H lies in U (x) V, so
    n_H <= n_U n_V <= p-part(n_S) p-part(n_T) = n_H: both bounds are
    equalities, H = U (x) V, and U and V are Hall.  The Hall subsets of
    the product are the products of Hall subsets, one to one.
    """
    s, t = pool()[left], pool()[right]
    x = sh.validate_scheme(sh.tensor_matrix(s, t))
    for p in prime_factors(x.n_points):
        assert len(sh.all_hall_subsets(x, {p})) == hall_count(left, p) * hall_count(right, p)


def test_wreath_c4_by_s4_at_scale():
    """C4 wr S4: 96 points and rank 4 + 24 - 1 = 27.  It is solvable,
    as both factors are, and has c(C4) + c(S4) - 1 = 3 + 30 - 1 = 32
    closed subsets.  A Hall {2}-subset has valency 32, the 2-part of 96:
    it is C4 with a Sylow 2-subgroup of S4, of which there are 3."""
    c4, s4 = pool()["C4"], sh.from_group(sh.symmetric(4), name="S4")
    w = sh.validate_scheme(sh.wreath_matrix(c4, s4), name="C4 wr S4")
    assert (w.n_points, w.rank) == (96, 27)
    assert sh.is_solvable_scheme(w)
    assert len(w.closed_subsets()) == len(c4.closed_subsets()) + len(s4.closed_subsets()) - 1 == 32
    halls = sh.all_hall_subsets(w, {2})
    assert len(halls) == 3
    assert {t.valency for t in halls} == {32}
    cert = sh.find_hall(w, {2})
    assert cert.hall in halls
    assert cert.hall.valency == 32
