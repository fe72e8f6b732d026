"""Cayley-table input checks and the group constructors."""

import pytest

import schemehall as sh

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


def test_dic3_is_a_thin_catalogue_scheme_of_order_12():
    dic3 = sh.thin_hypergroup(sh.dicyclic(3))
    thin = [s for s in map(sh.SchemeFile.scheme, sh.bundled_catalogue(12)) if s.rank == 12]
    matches = [s for s in thin if sh.find_isomorphism(dic3, s.hypergroup) is not None]
    assert len(thin) == 5
    assert len(matches) == 1


def test_dicyclic_needs_n_at_least_2():
    with pytest.raises(ValueError, match="dicyclic"):
        sh.dicyclic(1)


@pytest.mark.parametrize("n", [0, -1])
def test_dihedral_needs_n_at_least_1(n):
    with pytest.raises(ValueError) as exc:
        sh.dihedral(n)
    assert str(exc.value) == "dihedral(n) needs n >= 1"
