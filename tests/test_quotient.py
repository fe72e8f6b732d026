"""Quotients, restrictions and homomorphisms.

Frozen values, worked out by hand before being written down here:

* C6 = <g>, D = {0, 3} (the order-2 subgroup).  Cosets of D in order of
  smallest member: {0,3}, {1,4}, {2,5}.  Coset products collapse to the
  C3 multiplication table, so the quotient is thin of order 3.
* S3 with F = closure of a transposition (order 2, not normal).  The
  double cosets are F itself and the other four elements lumped
  together, so the quotient has order 2 and the non-neutral double
  coset q satisfies q*q = {0, 1}: the quotient is not thin.
* Square (4-cycle distance hypergroup) mod {0, 2} gives the thin C2.
"""

import importlib

import pytest

import schemehall as sh
from schemehall.hypergroup import bits_of

from conftest import catalogue_schemes
from oracles import subquotient_of_copy, subquotient_over_parent

SQUARE = [[{0}, {1}, {2}], [{1}, {0, 2}, {1}], [{2}, {1}, {0}]]
quotient_module = importlib.import_module("schemehall.quotient")


@pytest.fixture
def c6():
    return sh.thin_hypergroup(sh.cyclic(6), name="c6")


@pytest.fixture
def c3():
    return sh.thin_hypergroup(sh.cyclic(3), name="c3")


def test_c6_mod_order2_is_thin_c3(c6, c3):
    d = c6.subset([0, 3])
    q = sh.quotient(c6, d)
    assert q.size == 3
    assert [tuple(bits_of(m)) for m in q.cosets] == [(0, 3), (1, 4), (2, 5)]
    assert q.table == ((1, 2, 4), (2, 4, 1), (4, 1, 2))
    assert q.inverse == (0, 2, 1)
    assert sh.is_thin(q)
    assert sh.is_strongly_normal(d, c6.universe())
    assert (q.table, q.inverse) == (c3.table, c3.inverse)


def test_square_mod_diagonal_is_thin_c2():
    sq = sh.validate_hypergroup(SQUARE, name="square")
    q = sh.quotient(sq, sq.subset([0, 2]))
    assert q.size == 2
    assert q.table == ((1, 2), (2, 1))
    assert [tuple(bits_of(m)) for m in q.cosets] == [(0, 2), (1,)]


def test_nonnormal_modulus_gives_nonthin_quotient():
    s3 = sh.thin_hypergroup(sh.symmetric(3), name="s3")
    f = sh.closure(s3.subset([1]))
    assert len(f) == 2
    assert not sh.is_normal_in(f, s3.universe())
    q = sh.quotient(s3, f)
    assert q.size == 2
    # the big double coset squares to everything
    assert q.table == ((1, 2), (2, 3))
    assert [s for s in q.elements if q.is_thin_element(s)] == [0]
    assert not sh.is_thin(q)
    assert not sh.is_strongly_normal(f, s3.universe())


def test_quotient_by_full_is_trivial(c6):
    q = sh.quotient(c6, c6.universe())
    assert q.size == 1
    assert q.table == ((1,),)


def test_quotient_rejects_nonclosed_modulus(c6):
    with pytest.raises(sh.NotClosedError):
        sh.quotient(c6, c6.subset([0, 1]))


def test_quotient_doors_check_the_modulus_closed_in_order(c6):
    """quotient and subquotient, the doors that take any subset, check
    the modulus closed, after the parent, containment and outer checks,
    with one message."""
    message = "quotient modulus must be a closed subset"
    with pytest.raises(sh.NotClosedError, match=message):
        sh.quotient(c6, c6.subset([0, 1]))
    with pytest.raises(sh.NotClosedError, match=message):
        sh.subquotient(c6, c6.universe(), c6.subset([0, 1]))
    with pytest.raises(sh.NotSubsetError, match="inner subset must lie inside the outer one"):
        sh.subquotient(c6, c6.subset([0, 2]), c6.subset([0, 1]))
    with pytest.raises(sh.NotClosedError, match="can only restrict to a closed subset"):
        sh.subquotient(c6, c6.subset([0, 1, 2]), c6.subset([0, 1]))
    assert sh.subquotient(c6, c6.universe(), c6.subset([0, 3])).size == 3


def test_quotient_rejects_foreign_subset(c6, c3):
    with pytest.raises(sh.ParentMismatchError):
        sh.quotient(c6, c3.subset([0]))


def test_restriction_to_closed_subset(c6):
    e = sh.closure(c6.subset([2]))
    assert tuple(e.members()) == (0, 2, 4)
    sub = sh.subquotient(c6, e, c6.neutral_subset())
    assert sub.size == 3
    assert sub.table == ((1, 2, 4), (2, 4, 1), (4, 1, 2))


def test_subquotient_degenerate_cases(c6):
    d = c6.subset([0, 3])
    whole = sh.subquotient(c6, c6.universe(), d)
    assert whole.table == sh.quotient(c6, d).table
    part = sh.subquotient(c6, sh.closure(c6.subset([2])), c6.neutral_subset())
    assert part.size == 3
    assert sh.is_thin(part)


def test_subquotient_matches_the_restriction_copy_on_the_catalogue():
    """Every closed pair F inside T of the catalogue to order 12: T // F
    read off the parent table equals the quotient of the validated
    restriction copy, cosets mapped back through the members of T."""
    pairs = 0
    for scheme in catalogue_schemes(12):
        hg = scheme.hypergroup
        closed = sh.enumerate_closed_subsets(hg)
        for t in closed:
            for f in closed:
                if not f.issubset(t):
                    continue
                q = sh.subquotient(hg, t, f)
                got = (q.table, q.inverse, q.cosets, q.coset_of)
                assert got == subquotient_over_parent(hg, t, f), (scheme.name, t, f)
                assert q.parent is hg and q.modulus == f
                pairs += 1
    assert pairs == 1633


def test_subquotient_projects_and_lifts_over_the_parent(c6):
    """A subquotient's parent is hg itself: lifts land in hg, and a
    closed subset of hg that leaves the outer subset does not project."""
    t = sh.closure(c6.subset([2]))
    q = sh.subquotient(c6, t, c6.neutral_subset())
    assert q.coset_of == (0, -1, 1, -1, 2, -1)
    with pytest.raises(sh.NotSubsetError):
        sh.project_closed(q, c6.universe())
    assert sh.lift_closed(q, sh.project_closed(q, t)) == t
    assert sh.is_thin(q)
    assert sh.is_strongly_normal(c6.neutral_subset(), t)
    assert t.members() == (0, 2, 4) and q.parent is c6


def test_kernel_entries_reject_as_the_restriction_copy_does(c6, c3):
    """Same error type and message, checked in the same order."""
    odd, halves = c6.subset([1, 3]), c6.subset([0, 3])
    cases = [
        (sh.subquotient, subquotient_of_copy, (c6.subset([0, 1]), c6.neutral_subset())),
        (sh.subquotient, subquotient_of_copy, (odd, c6.neutral_subset())),
        (sh.subquotient, subquotient_of_copy, (halves, c6.subset([0, 2]))),
        (sh.subquotient, subquotient_of_copy, (c6.universe(), c6.subset([0, 1]))),
        (sh.subquotient, subquotient_of_copy, (c3.universe(), c3.neutral_subset())),
        (sh.subquotient, subquotient_of_copy, (c6.universe(), c3.neutral_subset())),
    ]
    for kernel, copy, args in cases:
        with pytest.raises(sh.SchemehallError) as new:
            kernel(c6, *args)
        with pytest.raises(sh.SchemehallError) as old:
            copy(c6, *args)
        assert (type(new.value), str(new.value)) == (type(old.value), str(old.value)), args


def test_lift_project_bijection(c6):
    """Closed subsets above the modulus correspond to closed subsets
    of the quotient, one-to-one and inclusion-preserving."""
    d = c6.subset([0, 3])
    q = sh.quotient(c6, d)
    above = [cs for cs in sh.enumerate_closed_subsets(c6) if d.issubset(cs)]
    below = list(sh.enumerate_closed_subsets(q))
    assert [tuple(cs.members()) for cs in above] == [(0, 3), (0, 1, 2, 3, 4, 5)]
    assert [tuple(cs.members()) for cs in below] == [(0,), (0, 1, 2)]
    for cs in above:
        down = sh.project_closed(q, cs)
        assert tuple(sh.lift_closed(q, down).members()) == tuple(cs.members())
    for cs in below:
        up = sh.lift_closed(q, cs)
        assert tuple(sh.project_closed(q, up).members()) == tuple(cs.members())


def test_natural_projection_and_kernel(c6):
    d = c6.subset([0, 3])
    q = sh.quotient(c6, d)
    phi = sh.validate_homomorphism(c6, q, q.coset_of)
    assert phi.mapping == (0, 1, 2, 0, 1, 2)
    assert phi.target is q
    assert tuple(sh.kernel(phi).members()) == (0, 3)


def test_double_cosets_that_overlap_are_an_internal_error(c6, monkeypatch):
    real = quotient_module._double_cosets
    monkeypatch.setattr(
        quotient_module, "_double_cosets", lambda hg, f, domain: real(hg, f, domain) + [f]
    )
    with pytest.raises(sh.InternalInconsistencyError) as info:
        sh.quotient(c6, c6.subset([0, 3]))
    assert str(info.value) == "double cosets failed to partition the element set"


def test_lift_and_projection_are_checked_closed(c6):
    """C6 // {0, 3} with the neutral coset skewed to {0, 1} lifts {0} to
    a subset that is not closed; with 3 sent to coset 1, it projects
    {0, 3} to {0, 1}, which is not closed in C3."""
    q = sh.quotient(c6, c6.subset([0, 3]))
    assert q.cosets == (0b1001, 0b10010, 0b100100)
    lifting = sh.QuotientHypergroup(
        q.table, q.inverse, c6, q.modulus, (0b11,) + q.cosets[1:], q.coset_of
    )
    with pytest.raises(sh.InternalInconsistencyError) as info:
        sh.lift_closed(lifting, lifting.neutral_subset())
    assert str(info.value) == "lift of a closed subset is not closed"
    projecting = sh.QuotientHypergroup(
        q.table, q.inverse, c6, q.modulus, q.cosets, (0, 1, 2, 1, 1, 2)
    )
    with pytest.raises(sh.InternalInconsistencyError) as info:
        sh.project_closed(projecting, c6.subset([0, 3]))
    assert str(info.value) == "projection of a closed subset is not closed"


def test_kernel_of_a_map_that_is_not_a_homomorphism():
    """The kernel of a homomorphism is closed; an unvalidated map, C4 onto
    C2 sending 1 and 3 to 0, has the preimage {0, 1, 3}, which is not.
    That is a bad input, not an engine bug, so the error is NotClosedError,
    naming the preimage and the check that refuses such a map."""
    c4 = sh.thin_hypergroup(sh.cyclic(4))
    c2 = sh.thin_hypergroup(sh.cyclic(2))
    phi = sh.HypergroupHomomorphism(c4, c2, (0, 0, 1, 0))
    with pytest.raises(sh.NotClosedError) as info:
        sh.kernel(phi)
    assert str(info.value) == (
        "preimage [0, 1, 3] of the neutral element is not closed, so the map "
        "is not a homomorphism: build it with validate_homomorphism"
    )
    with pytest.raises(ValueError, match="homomorphism law fails"):
        sh.validate_homomorphism(c4, c2, phi.mapping)


def test_validate_homomorphism_accepts_coset_map(c6, c3):
    phi = sh.validate_homomorphism(c6, c3, (0, 1, 2, 0, 1, 2))
    assert tuple(sh.kernel(phi).members()) == (0, 3)


def test_validate_homomorphism_accepts_embedding(c6, c3):
    # C3 into C6 doubling exponents; image is the closed subset {0,2,4}
    phi = sh.validate_homomorphism(c3, c6, (0, 2, 4))
    assert tuple(sh.closure(c6.subset(phi.mapping)).members()) == (0, 2, 4)
    assert tuple(sh.kernel(phi).members()) == (0,)


def test_validate_homomorphism_rejects_law_violation(c6, c3):
    with pytest.raises(ValueError, match="homomorphism law"):
        sh.validate_homomorphism(c6, c3, (0, 1, 2, 0, 1, 1))


def test_validate_homomorphism_rejects_nonneutral_image(c6, c3):
    with pytest.raises(ValueError):
        sh.validate_homomorphism(c6, c3, (1, 2, 0, 1, 2, 0))


def test_second_isomorphism_instances_on_c6(c6):
    """Collapsing in two steps agrees with collapsing in one: for
    closed D inside normal closed E, (H//D)//(E//D) is isomorphic to
    H//E by the natural map, a coset to the coset of its least member.
    Checked over every admissible pair in C6."""
    pairs = 0
    for dm in sh.enumerate_closed_subsets(c6):
        for em in sh.enumerate_closed_subsets(c6):
            if not dm.issubset(em):
                continue
            if not sh.is_normal_in(em, c6.universe()):
                continue
            qd = sh.quotient(c6, dm)
            big = sh.quotient(qd, sh.project_closed(qd, em))
            direct = sh.quotient(c6, em)
            mapping = tuple(
                direct.coset_of[bits_of(qd.cosets[bits_of(c)[0]])[0]] for c in big.cosets
            )
            sh.validate_homomorphism(big, direct, mapping)
            assert sorted(mapping) == list(range(direct.size))
            pairs += 1
    assert pairs == 9  # 4 closed subsets of C6, all normal, nested pairs


@pytest.mark.parametrize("call, error, message", [
    (
        lambda c6, q: sh.lift_closed(c6, c6.universe()),
        TypeError,
        "expected QuotientHypergroup, got Hypergroup",
    ),
    (
        lambda c6, q: sh.project_closed(c6, c6.universe()),
        TypeError,
        "expected QuotientHypergroup, got Hypergroup",
    ),
    (
        lambda c6, q: sh.lift_closed(q, q.subset([0, 1])),
        sh.NotClosedError,
        "can only lift a closed subset of the quotient",
    ),
    (
        lambda c6, q: sh.project_closed(q, c6.subset([0, 1])),
        sh.NotClosedError,
        "can only project a closed subset",
    ),
    (
        lambda c6, q: sh.project_closed(q, c6.subset([0, 2, 4])),
        sh.NotSubsetError,
        "projection needs a subset containing the modulus",
    ),
    (
        lambda c6, q: sh.validate_homomorphism(c6, q, (0, 1)),
        ValueError,
        "mapping length does not match the source order",
    ),
    (
        lambda c6, q: sh.validate_homomorphism(c6, q, (0, 1, 2, 0, 1, 3)),
        ValueError,
        "mapping value 3 outside the target",
    ),
    (
        lambda c6, q: sh.validate_homomorphism(c6, q, (0, True, 2, 0, 1, 2)),
        ValueError,
        "mapping value True is not an int",
    ),
    (
        lambda c6, q: sh.validate_homomorphism(c6, q, (0, 1.0, 2, 0, 1, 2)),
        ValueError,
        "mapping value 1.0 is not an int",
    ),
    (
        lambda c6, q: sh.validate_homomorphism(c6, q, (0, "1", 2, 0, 1, 2)),
        ValueError,
        "mapping value '1' is not an int",
    ),
])
def test_quotient_input_checks(c6, call, error, message):
    q = sh.quotient(c6, c6.subset([0, 3]))
    with pytest.raises(error) as exc:
        call(c6, q)
    assert str(exc.value) == message


def test_quotient_doors_check_each_subset_argument_first(c6, c3):
    """quotient, subquotient (either subset), lift_closed and
    project_closed check that a subset argument is an ElementSubset of
    their hypergroup before they read it: a tuple raises TypeError and a
    subset of another hypergroup ParentMismatchError."""
    q = sh.quotient(c6, c6.subset([0, 3]))
    doors = [
        lambda arg: sh.quotient(c6, arg),
        lambda arg: sh.subquotient(c6, arg, c6.neutral_subset()),
        lambda arg: sh.subquotient(c6, c6.universe(), arg),
        lambda arg: sh.lift_closed(q, arg),
        lambda arg: sh.project_closed(q, arg),
    ]
    for door in doors:
        with pytest.raises(TypeError) as exc:
            door((0, 3))
        assert str(exc.value) == "expected ElementSubset, got tuple"
        for foreign in (c3.universe(), c3.neutral_subset()):
            with pytest.raises(sh.ParentMismatchError) as exc:
                door(foreign)
            assert str(exc.value) == "subsets belong to different hypergroups"
