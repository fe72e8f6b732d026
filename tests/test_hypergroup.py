"""Core hypergroup structure: axioms, subsets, closure, normality.

Expected values for the two running examples were derived by hand from
the point sets they model and are frozen here:

* pentagon: distance classes on a 5-cycle give products
  1*1={0,2}, 1*2=2*1={1,2}, 2*2={0,1}; only {0} and the whole set are
  closed; nothing except the neutral element is thin.
* square: distance classes on a 4-cycle give 1*1={0,2}, 1*2={1},
  2*2={0}; closed subsets {0}, {0,2}, all; 2 is a thin element and
  {0,2} is the smallest strongly normal closed subset.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import schemehall as sh
from schemehall import (
    AssocViolationError,
    ElementSubset,
    EmptyProductError,
    NoInverseError,
    NoNeutralError,
    ParentMismatchError,
)

from conftest import row_reading_copy
from oracles import all_closed_subsets_scan, closure_scan

PENTAGON = [
    [{0}, {1}, {2}],
    [{1}, {0, 2}, {1, 2}],
    [{2}, {1, 2}, {0, 1}],
]

SQUARE = [
    [{0}, {1}, {2}],
    [{1}, {0, 2}, {1}],
    [{2}, {1}, {0}],
]


@pytest.fixture
def pentagon():
    return sh.validate_hypergroup(PENTAGON, name="pentagon")


@pytest.fixture
def square():
    return sh.validate_hypergroup(SQUARE, name="square")


def test_validate_accepts_pentagon(pentagon):
    assert pentagon.size == 3
    assert pentagon.inverse == (0, 1, 2)
    assert (pentagon.subset([1]) * pentagon.subset([1])).members() == (0, 2)
    assert (pentagon.subset([2]) * pentagon.subset([2])).members() == (0, 1)


def test_neutral_is_reindexed_to_zero():
    # same structure as C2 but with the neutral element listed second
    table = [
        [{0}, {1}],
        [{1}, {0}],
    ]
    shuffled = [
        [{1}, {0}],
        [{0}, {1}],
    ]
    a = sh.validate_hypergroup(table)
    b = sh.validate_hypergroup(shuffled)
    assert a.table == b.table


def test_missing_neutral_rejected():
    bad = [[{1}, {0, 1}], [{0, 1}, {0}]]
    with pytest.raises(NoNeutralError):
        sh.validate_hypergroup(bad)


@pytest.mark.parametrize("table, message", [
    ([[{0}, {1}], [{1}]], "row 1 has length 1, expected 2"),
    ([[1, 2], [2, 4]], r"cell \(1, 1\) mask out of range"),
    ([[{0}, {1}], [{1}, {2}]], r"cell \(1, 1\) contains 2, outside 0..1"),
    ([[{0}, {1}], [{1}, 1.0]], r"cell \(1, 1\) is 1.0, neither an int mask nor an iterable"),
    ([[{0}, {1}], [{1}, None]], r"cell \(1, 1\) is None, neither an int mask nor an iterable"),
    ([[1, 2], [2, True]], r"cell \(1, 1\) is True, neither an int mask nor an iterable"),
    ([[{0}, {1}], [{1}, [True]]], r"cell \(1, 1\) contains True, outside 0..1"),
    ([[{0}, {1}], [{1}, [1.0]]], r"cell \(1, 1\) contains 1.0, outside 0..1"),
    ([[{0}, {1}], [{1}, [-1]]], r"cell \(1, 1\) contains -1, outside 0..1"),
])
def test_malformed_table_rejected(table, message):
    with pytest.raises(ValueError, match=message):
        sh.validate_hypergroup(table)


def test_two_right_neutrals_rejected():
    # s * 0 = s * 1 = {s}: both columns act as a right neutral
    bad = [[{0}, {0}], [{1}, {1}]]
    with pytest.raises(NoNeutralError, match=r"multiple right neutral elements: \[0, 1\]"):
        sh.validate_hypergroup(bad)


def test_empty_product_rejected():
    bad = [[{0}, {1}], [{1}, set()]]
    with pytest.raises(EmptyProductError):
        sh.validate_hypergroup(bad)


def test_missing_inverse_rejected():
    # 1*1 = {1} means no inverse for 1
    bad = [[{0}, {1}], [{1}, {1}]]
    with pytest.raises(NoInverseError):
        sh.validate_hypergroup(bad)


def test_associativity_violation_rejected():
    # Klein-like table with 1*1 fattened to {0,1}: every exchange
    # condition still holds, but (1*1)*2 = {2,3} while 1*(1*2) = {2}
    bad = [
        [{0}, {1}, {2}, {3}],
        [{1}, {0, 1}, {3}, {2}],
        [{2}, {3}, {0}, {1}],
        [{3}, {2}, {1}, {0}],
    ]
    with pytest.raises(AssocViolationError) as exc:
        sh.validate_hypergroup(bad)
    assert "(1, 1, 2)" in str(exc.value)


def test_subset_algebra(pentagon):
    a = pentagon.subset([1])
    b = pentagon.subset([2])
    assert (a | b).members() == (1, 2)
    assert (a * b).members() == (1, 2)
    assert (a * a).members() == (0, 2)
    assert a.star() == a
    assert len(a * b) == 2


def test_parent_mismatch_rejected(pentagon, square):
    with pytest.raises(ParentMismatchError):
        pentagon.subset([1]) | square.subset([1])


def test_closure_pentagon(pentagon):
    got = sh.closure(pentagon.subset([1]))
    assert got.members() == (0, 1, 2)
    with pytest.raises(sh.EmptyInputError):
        sh.closure(pentagon.subset([]))


def test_closed_subsets_pentagon(pentagon):
    subsets = sh.enumerate_closed_subsets(pentagon)
    assert [c.members() for c in subsets] == [(0,), (0, 1, 2)]
    assert [c.bits for c in all_closed_subsets_scan(pentagon)] == [c.bits for c in subsets]


def test_closed_subsets_square(square):
    subsets = sh.enumerate_closed_subsets(square)
    assert [c.members() for c in subsets] == [(0,), (0, 2), (0, 1, 2)]


def test_valency_needs_a_schemes_hypergroup(pentagon):
    """A closed subset's valency sums the valencies its hypergroup
    carries.  A scheme's hypergroup and its quotient scheme's carry them;
    a validate_hypergroup table and a quotient hypergroup carry none, and
    reading the valency raises ValueError naming the hypergroup."""
    c6 = sh.from_group(sh.cyclic(6), name="c6")
    t = c6.closed_subset([0, 3])
    assert (t.valency, c6.hypergroup.universe().valency) == (2, 6)
    assert sh.quotient_scheme(c6, t).hypergroup.universe().valency == 3
    for hg in (pentagon, sh.quotient(c6.hypergroup, t)):
        with pytest.raises(ValueError) as exc:
            hg.universe().valency
        assert str(exc.value) == f"{hg!r} carries no valencies: it is not a scheme's hypergroup"


def test_closure_against_scan(square):
    for bits in range(1, 1 << square.size):
        fast = sh.closure(square.subset(bits))
        slow = closure_scan(square.subset(bits))
        assert fast.bits == slow.bits


def test_closure_stops_at_a_mask(square):
    """closure_mask with a stop mask is the closure when that misses
    stop; otherwise it is the part found by the round that met stop,
    which holds the mask, meets stop and lies inside the closure: on C8,
    closing {1} with stop {3, 4, 5} multiplies two frontiers, {0, 1, 7}
    and {2, 6}, reading their rows, where the whole closure multiplies
    four, down to {3, 5} and {4}."""
    for hg in (square, sh.thin_hypergroup(sh.symmetric(3))):
        for bits in range(1, 1 << hg.size):
            whole = hg.closure_mask(bits)
            for stop in range(1 << hg.size):
                got = hg.closure_mask(bits, stop)
                if whole & stop:
                    assert got & stop and bits & ~got == 0 and got & ~whole == 0
                else:
                    assert got == whole
    c8, reads = row_reading_copy(sh.thin_hypergroup(sh.cyclic(8)))
    assert c8.closure_mask(0b10) == 0xFF and reads == [0, 1, 7, 2, 6, 3, 5, 4]
    reads.clear()
    assert c8.closure_mask(0b10, 0b111000) == 0b11101111 and reads == [0, 1, 7, 2, 6]


def test_thin_detection(pentagon, square):
    assert [s for s in pentagon.elements if pentagon.is_thin_element(s)] == [0]
    assert [s for s in square.elements if square.is_thin_element(s)] == [0, 2]
    assert not sh.is_thin(pentagon)
    assert not sh.is_thin(square)
    assert sh.is_thin(sh.thin_hypergroup(sh.cyclic(4)))


def test_theta_core(pentagon, square):
    assert sh.theta_core(pentagon).members() == (0, 1, 2)
    assert sh.theta_core(square).members() == (0, 2)


def test_metathin(square, pentagon):
    # metathin: every element of the theta core is thin; square's
    # theta core {0,2} equals its thin elements, pentagon's is everything
    assert all(square.is_thin_element(s) for s in sh.theta_core(square).members())
    assert not all(pentagon.is_thin_element(s) for s in sh.theta_core(pentagon).members())


def test_strong_normality(square):
    full = square.universe()
    assert sh.is_strongly_normal(square.subset([0, 2]), full)
    assert not sh.is_strongly_normal(square.subset([0]), full)


def test_subnormality_needs_f_inside_g():
    c4 = sh.thin_hypergroup(sh.cyclic(4))
    assert sh.is_subnormal(c4.subset([0, 2]), c4.universe())
    assert not sh.is_subnormal(c4.universe(), c4.subset([0, 2]))


def test_double_cosets(square):
    masks = sh.double_cosets(square, square.subset([0, 2]))
    # {0,2} and {1}
    assert masks == [0b101, 0b010]


def test_double_cosets_require_closed(pentagon):
    with pytest.raises(sh.NotSubsetError):
        sh.double_cosets(pentagon, pentagon.subset([1]))


def test_double_cosets_refuse_a_subset_of_another_hypergroup():
    c4 = sh.thin_hypergroup(sh.cyclic(4))
    twin = sh.thin_hypergroup(sh.cyclic(4))  # equal table, another hypergroup
    c8 = sh.thin_hypergroup(sh.cyclic(8))
    with pytest.raises(sh.ParentMismatchError):
        sh.double_cosets(c4, twin.subset([0, 2]))
    with pytest.raises(sh.ParentMismatchError):
        sh.double_cosets(c4, c8.subset([0, 4]))
    with pytest.raises(TypeError, match="expected ElementSubset, got tuple"):
        sh.double_cosets(c4, (0, 2))
    assert sh.double_cosets(c4, c4.subset([0, 2])) == [0b101, 0b1010]


def test_format_table_smoke(square):
    text = sh.format_table(square)
    assert "{0,2}" in text


# A thin hypergroup built from any group table must satisfy all axioms
# and report every element as thin.
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_thin_hypergroup_from_cyclic(n):
    hg = sh.thin_hypergroup(sh.cyclic(n))
    assert hg.size == n
    assert all(hg.is_thin_element(s) for s in hg.elements)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
def test_subset_star_reverses_products(a_bits, b_bits):
    hg = sh.validate_hypergroup(PENTAGON)
    a = ElementSubset(hg, a_bits & hg.full_mask)
    b = ElementSubset(hg, b_bits & hg.full_mask)
    assert (a * b).star().bits == (b.star() * a.star()).bits


def test_is_closed_matches_definition(pentagon):
    assert pentagon.subset([0]).is_closed()
    assert not pentagon.subset([0, 1]).is_closed()
    assert pentagon.universe().is_closed()


@pytest.mark.parametrize("call, error, message", [
    (lambda p, s: p.subset(1 << p.size), ValueError, "mask 0x8 is out of range for order 3"),
    (lambda p, s: p.subset([0, -1]), ValueError, "element -1 is out of range for order 3"),
    (lambda p, s: p.subset([3]), ValueError, "element 3 is out of range for order 3"),
    (lambda p, s: p.subset([True]), ValueError, "element True is not an int"),
    (lambda p, s: p.subset([1.0]), ValueError, "element 1.0 is not an int"),
    (lambda p, s: sh.validate_hypergroup([]), NoNeutralError, "empty table has no neutral element"),
    (
        lambda p, s: sh.is_strongly_normal(s.subset([0, 2]), s.subset([0, 1])),
        sh.NotSubsetError,
        "strong normality is only defined for F inside G",
    ),
])
def test_hypergroup_input_checks(pentagon, square, call, error, message):
    with pytest.raises(error) as exc:
        call(pentagon, square)
    assert str(exc.value) == message


@pytest.mark.parametrize("s, message", [
    (-1, "element -1 is out of range for order 24"),
    (24, "element 24 is out of range for order 24"),
    (99, "element 99 is out of range for order 24"),
    (True, "element True is not an int"),
])
def test_is_thin_element_checks_its_element_as_subset_does(s, message):
    """is_thin_element raises the ValueError subset([s]) raises for an
    index that is negative, past the order or not an int, on S4's
    hypergroup; a negative index does not read an element from the end."""
    hg = sh.from_group(sh.symmetric(4)).hypergroup
    for call in (lambda: hg.is_thin_element(s), lambda: hg.subset([s])):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    assert hg.is_thin_element(23)


@pytest.mark.parametrize("make", [
    lambda hg: 1 << 40, lambda hg: -1, lambda hg: hg.full_mask + 1,
], ids=["far", "negative", "one_past"])
def test_raw_mask_methods_refuse_a_mask_out_of_range(make):
    """The mask-level methods and valency_of_mask raise the error subset
    raises for a mask with a bit at or past the order, a negative one
    among them."""
    hg = sh.from_group(sh.symmetric(4)).hypergroup
    mask = make(hg)
    for call in (
        lambda: hg.closure_mask(mask),
        lambda: hg.is_closed_mask(mask),
        lambda: hg.mul_masks(mask, 1),
        lambda: hg.mul_masks(1, mask),
        lambda: hg.star_mask(mask),
        lambda: hg.subset(mask),
        lambda: hg.valency_of_mask(mask),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"mask {mask:#x} is out of range for order 24"
