"""Cayley-table input checks and the group constructors."""

import itertools

import pytest

import schemehall as sh
from schemehall.groups import all_subgroups, find_subgroup_conjugator, is_solvable_group

from oracles import all_subgroups_scan, generated_subgroup, subgroup_conjugator_scan

# a loop of order 5: 2 * 3 = 0 but 3 * 2 = 1, so 2 has a right inverse
# that is not a left one
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


@pytest.mark.parametrize("table, message", [
    ([], "empty table"),
    ([[0, 1], [1]], "row 1 has length 1, expected 2"),
    ([[0, 2], [1, 0]], "entry 2 in row 0 outside 0..1"),
    ([[0, 0], [1, 0]], "row 0 is not a permutation"),
    ([[0, 1], [0, 1]], "column 0 is not a permutation"),
    ([[1, 0], [0, 1]], "index 0 is not a two-sided identity"),
    (LOOP5, "element 2 has no two-sided inverse"),
    ([[0.0, 1], [1, 0]], "entry 0.0 in row 0 is not an integer"),
    ([[0, True], [True, 0]], "entry True in row 0 is not an integer"),
    ([[False, 1], [1, 0]], "entry False in row 0 is not an integer"),
    ([[0, 1], [1, False]], "entry False in row 1 is not an integer"),
])
def test_validate_group_names_each_failed_axiom(table, message):
    for build in (sh.validate_group, sh.from_group):
        with pytest.raises(sh.NotAGroupError) as exc:
            build(table)
        assert str(exc.value) == message


def test_quaternion_is_the_bundled_q8():
    assert sh.quaternion() == sh.bundled_group("q8").table


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dicyclic_groups(n):
    """Dic_n has order 4n, one involution a^n, and is not abelian."""
    t = sh.validate_group(sh.dicyclic(n))
    assert len(t) == 4 * n
    assert [x for x in range(1, 4 * n) if t[x][x] == 0] == [n]
    assert any(t[x][y] != t[y][x] for x in range(4 * n) for y in range(4 * n))


def _signature(table) -> tuple[bool, tuple[int, ...]]:
    """(commutative, sorted element orders), which tell the five groups
    of order 12 apart."""
    n = len(table)
    commutative = all(table[x][y] == table[y][x] for x in range(n) for y in range(n))
    orders = sorted(generated_subgroup(table, 1 << x).bit_count() for x in range(n))
    return commutative, tuple(orders)


def test_dic3_is_a_thin_catalogue_scheme_of_order_12():
    thin = [s for s in map(sh.SchemeFile.scheme, sh.bundled_catalogue(12)) if s.rank == 12]
    signatures = [_signature(sh.group_from_thin(s.hypergroup)) for s in thin]
    assert len(thin) == 5
    assert len(set(signatures)) == 5
    assert signatures.count(_signature(sh.dicyclic(3))) == 1


def test_dicyclic_needs_n_at_least_2():
    with pytest.raises(ValueError, match="dicyclic"):
        sh.dicyclic(1)


@pytest.mark.parametrize("n", [0, -1])
def test_dihedral_needs_n_at_least_1(n):
    with pytest.raises(ValueError) as exc:
        sh.dihedral(n)
    assert str(exc.value) == "dihedral(n) needs n >= 1"


def test_distinct_subgroups_of_an_abelian_group_have_no_conjugator():
    # C2 x C2 is abelian: each subgroup is its only conjugate
    k4 = sh.direct_product(sh.cyclic(2), sh.cyclic(2))
    assert find_subgroup_conjugator(k4, 0b0011, 0b0101) is None
    assert find_subgroup_conjugator(k4, 0b0011, 0b0011) == 0


def test_subgroup_conjugator_matches_the_index_table_scan():
    """find_subgroup_conjugator, the hypergroup conjugator search run on
    the group as a thin hypergroup, answers what the scan over every g of
    g^-1 x g read off the table answers: on every ordered pair of Hall
    pi-subgroups of every bundled solvable group and S4 x C2, for every
    pi of the primes of its order."""
    tables = [sh.bundled_group(name).table for name in sh.bundled_group_names()]
    tables.append(sh.direct_product(sh.symmetric(4), sh.cyclic(2)))
    pairs = 0
    for t in tables:
        if not is_solvable_group(sh.thin_hypergroup(t)):
            continue
        primes = sh.prime_factors(len(t))
        for k in range(len(primes) + 1):
            for pi in itertools.combinations(primes, k):
                halls = sh.hall_subgroups(t, pi)
                for a, b in itertools.product(halls, repeat=2):
                    assert find_subgroup_conjugator(t, a, b) == subgroup_conjugator_scan(t, a, b)
                    pairs += 1
    assert pairs == 510


def test_group_entry_points_validate_their_table():
    """A row with a repeated entry is no group table: hall_subgroups,
    find_subgroup_conjugator and all_subgroups each refuse it before any
    search.  find_subgroup_conjugator reads each mask as a subset of the
    group, so a mask out of range is a ValueError, not an IndexError."""
    table = [[0, 1, 2], [1, 1, 0], [2, 0, 1]]
    with pytest.raises(sh.NotAGroupError) as exc:
        sh.hall_subgroups(table, {3})
    assert str(exc.value) == "row 1 is not a permutation"
    with pytest.raises(sh.NotAGroupError) as exc:
        find_subgroup_conjugator(table, 1, 1)
    assert str(exc.value) == "row 1 is not a permutation"
    with pytest.raises(sh.NotAGroupError) as exc:
        all_subgroups(table)
    assert str(exc.value) == "row 1 is not a permutation"
    c4 = sh.cyclic(4)
    for a, b, message in [
        (1 << 10, 1, "mask 0x400 is out of range for order 4"),
        (-1, 1, "mask -0x1 is out of range for order 4"),
        (1, 1 << 4, "mask 0x10 is out of range for order 4"),
    ]:
        with pytest.raises(ValueError) as exc:
            find_subgroup_conjugator(c4, a, b)
        assert str(exc.value) == message


def test_all_subgroups_matches_the_index_table_scan():
    """all_subgroups, the closed subsets of the thin hypergroup from its
    lattice walk, finds the subgroups the index-table scan finds, in the
    same order: on every bundled group and S4 x C2."""
    tables = [sh.bundled_group(name).table for name in sh.bundled_group_names()]
    tables.append(sh.direct_product(sh.symmetric(4), sh.cyclic(2)))
    for t in tables:
        assert all_subgroups(t) == all_subgroups_scan(t), len(t)
