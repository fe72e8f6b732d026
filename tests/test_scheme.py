"""Association scheme validation, induced hypergroups and quotients.

Hand-checked values used below:

* Pentagon (5-cycle distance partition): valencies (1, 2, 2).  Adjacent
  points share no common neighbour, points at distance two share one,
  and each point has two neighbours, so a_{111} = 0, a_{112} = 1 and
  a_{110} = 2 (intersection_numbers(r)[p][q] = a_{pqr}).
* Petersen graph distance partition: valencies (1, 6, 3) once relation
  1 is "shares an element" between 2-element subsets of a 5-set.
* Path on three points is NOT a scheme: the pair count for (1, 2)
  fails to be constant over relation 1.
"""

import importlib
import re
import sys
import tracemalloc

import pytest

import schemehall as sh
from schemehall import arith, groups as groups_module, scheme as scheme_module

from conftest import ALL_PI, catalogue_schemes

P3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
STAR_BAD = [
    [0, 1, 1, 2],
    [2, 0, 1, 1],
    [1, 2, 0, 1],
    [1, 1, 2, 0],
]


@pytest.fixture(scope="module")
def pentagon():
    return sh.bundled_scheme("pentagon").scheme()


@pytest.fixture(scope="module")
def wreath28():
    return sh.bundled_scheme("hm176_28").scheme()


def test_validator_error_order():
    with pytest.raises(sh.NotPartitionError):
        sh.validate_scheme([])
    with pytest.raises(sh.NotSquareError):
        sh.validate_scheme([[0, 1], [1]])
    with pytest.raises(sh.NotPartitionError, match=r"missing \[1\]"):
        sh.validate_scheme([[0, 2], [2, 0]])
    with pytest.raises(sh.IdentityViolationError):
        sh.validate_scheme([[0, 1], [1, 1]])
    with pytest.raises(sh.IdentityViolationError):
        sh.validate_scheme([[0, 0], [1, 0]])
    with pytest.raises(sh.StarViolationError):
        sh.validate_scheme(STAR_BAD)
    with pytest.raises(sh.RegularityViolationError):
        sh.validate_scheme(P3)


@pytest.mark.parametrize("matrix", [
    [[0, 1], [1.0, 0]],
    [[0, 1.0], [1, 0]],
    [[0.0, 1], [1, 0]],
    [[0, True], [True, 0]],
    [[0, 1], [True, 0]],
    [[False, 1], [1, 0]],
])
def test_validator_checks_the_type_of_every_entry(matrix):
    """1, 1.0 and True are equal, so a set of labels keeps whichever
    came first; each entry's own type decides."""
    with pytest.raises(sh.NotPartitionError, match="^relation labels must be non-negative integers$"):
        sh.validate_scheme(matrix)


def test_hypergroup_inverses_must_match_the_star_map():
    pent = sh.bundled_scheme("pentagon").scheme()
    pent.star_map = (0, 2, 1)
    with pytest.raises(sh.InternalInconsistencyError, match="inverses differ from the star map"):
        pent.hypergroup


def test_pentagon_basics(pentagon):
    assert len(pentagon.rel) == 5
    assert pentagon.valencies == (1, 2, 2)
    assert pentagon.star_map == (0, 1, 2)
    assert pentagon.intersection_numbers(1)[1][1] == 0
    assert pentagon.intersection_numbers(2)[1][1] == 1
    assert pentagon.intersection_numbers(0)[1][1] == 2
    hg = pentagon.hypergroup
    assert tuple((hg.subset([1]) * hg.subset([1])).members()) == (0, 2)
    assert tuple((hg.subset([1]) * hg.subset([2])).members()) == (1, 2)
    assert [tuple(cs.members()) for cs in pentagon.closed_subsets()] == [
        (0,),
        (0, 1, 2),
    ]
    assert not sh.is_solvable_scheme(pentagon)


def test_petersen_basics():
    pet = sh.bundled_scheme("petersen").scheme()
    assert pet.valencies == (1, 6, 3)
    assert [tuple(cs.members()) for cs in pet.closed_subsets()] == [(0,), (0, 1, 2)]
    assert not sh.is_solvable_scheme(pet)


def test_from_group_is_thin():
    c6s = sh.from_group(sh.cyclic(6), name="c6")
    assert c6s.valencies == (1,) * 6
    assert sh.is_thin(c6s.hypergroup)
    # group quotients survive the round trip
    t = sh.closure(c6s.hypergroup.subset([3]))
    assert tuple(t.members()) == (0, 3)
    assert c6s.hypergroup.valency_of_mask(t.bits) == 2
    q = sh.quotient_scheme(c6s, t)
    assert len(q.blocks) == 3
    assert q.scheme.valencies == (1, 1, 1)


def test_from_group_equals_the_validated_rows():
    """from_group builds the thin scheme without validate_scheme's passes:
    on every bundled group and on S4 x C4 (96 points) it equals
    validate_scheme of the same rows in relations, partners, valencies
    and the hypergroup's table and inverse.  thin_hypergroup of each
    table equals validate_hypergroup of its singleton table in table and
    inverse."""
    tables = [sh.bundled_group(name).table for name in sh.bundled_group_names()]
    tables.append(sh.direct_product(sh.symmetric(4), sh.cyclic(4)))
    for table in tables:
        got = sh.from_group(table)
        want = sh.validate_scheme(got.rel)
        assert got.rel == want.rel
        assert got.star_map == want.star_map
        assert got.valencies == want.valencies
        assert got.hypergroup.table == want.hypergroup.table
        assert got.hypergroup.inverse == want.hypergroup.inverse
        thin = sh.thin_hypergroup(table)
        want_thin = sh.validate_hypergroup([[1 << v for v in row] for row in table])
        assert (thin.table, thin.inverse) == (want_thin.table, want_thin.inverse)
    assert len(tables[-1]) == 96


def test_a_group_table_is_proved_associative_once(monkeypatch):
    """from_group(S4).hypergroup and thin_hypergroup(S4) each build the
    hypergroup from the table validate_group returned: associativity is
    proved once, and validate_hypergroup does not run."""
    calls = []
    for name in ("_associativity_witness", "validate_hypergroup"):
        original = getattr(importlib.import_module("schemehall.hypergroup"), name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.startswith("schemehall.") and hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    for build in (
        lambda: sh.from_group(sh.symmetric(4)).hypergroup,
        lambda: sh.thin_hypergroup(sh.symmetric(4)),
    ):
        calls.clear()
        assert build().size == 24
        assert calls == ["_associativity_witness"]


def test_wreath28_structure(wreath28):
    assert len(wreath28.rel) == 28
    assert wreath28.valencies == (1, 1, 1, 1, 4, 4, 4, 4, 4, 4)
    sizes = sorted(
        wreath28.hypergroup.valency_of_mask(cs.bits) for cs in wreath28.closed_subsets()
    )
    assert sizes == [1, 2, 4, 28]
    assert sh.is_pi_valenced(wreath28, {2})
    assert not sh.is_pi_valenced(wreath28, {7})
    assert sh.is_solvable_scheme(wreath28)


def test_wreath28_thin_radical_quotient(wreath28):
    t4 = [
        cs for cs in wreath28.closed_subsets() if wreath28.hypergroup.valency_of_mask(cs.bits) == 4
    ][0]
    assert tuple(t4.members()) == (0, 1, 2, 3)
    assert wreath28.hypergroup.universe().valency // t4.valency == 7
    pp = sh.pi_predicates(wreath28, t4, {2})
    assert pp.is_pi_valenced and pp.is_closed_pi_subset and pp.is_hall_pi_subset
    q = sh.quotient_scheme(wreath28, t4)
    assert len(q.blocks) == 7
    assert q.scheme.valencies == (1,) * 7
    # the induced hypergroup of the quotient agrees with quotienting
    # the induced hypergroup directly
    assert q.hyper_quotient.table == sh.quotient(wreath28.hypergroup, t4).table


def test_quotient_scheme_proves_the_hypergroup_axioms_once(monkeypatch):
    """quotient proves H1-H3 on the quotient table, and that table is the
    quotient scheme's hypergroup: one validate_hypergroup call for a
    non-trivial modulus, none for {0}, whose quotient is the hypergroup
    itself."""
    calls = []
    original = sh.validate_hypergroup

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    s = sh.bundled_scheme("hm176_28").scheme()
    assert s.hypergroup.size == 10
    for key, module in list(sys.modules.items()):
        if key.startswith("schemehall.") and hasattr(module, "validate_hypergroup"):
            monkeypatch.setattr(module, "validate_hypergroup", counted)
    q = sh.quotient_scheme(s, s.closed_subset([0, 1, 2, 3]))
    assert calls == [7]
    assert q.scheme.hypergroup.table == q.hyper_quotient.table
    assert q.scheme.hypergroup.inverse == q.hyper_quotient.inverse == q.scheme.star_map
    calls.clear()
    q = sh.quotient_scheme(s, s.hypergroup.neutral_subset())
    assert calls == []
    assert q.scheme.hypergroup.table == s.hypergroup.table
    # the one comparison left still catches a hypergroup quotient whose
    # table or inverse disagrees with the quotient scheme
    real = scheme_module.quotient
    for skew in (
        lambda hq: (hq.table[:1] + hq.table[2:0:-1] + hq.table[3:], hq.inverse),
        lambda hq: (hq.table, hq.inverse[:1] + hq.inverse[:0:-1]),
    ):
        def skewed(hg, modulus, skew=skew):
            hq = real(hg, modulus)
            return sh.QuotientHypergroup(*skew(hq), hg, hq.modulus, hq.cosets, hq.coset_of)

        monkeypatch.setattr(scheme_module, "quotient", skewed)
        with pytest.raises(sh.InternalInconsistencyError, match="^hypergroup of the quotient scheme differs"):
            sh.quotient_scheme(s, s.closed_subset([0, 1, 2, 3]))


def test_quotient_scheme_rejects_foreign_subset(pentagon, wreath28):
    with pytest.raises(sh.ParentMismatchError):
        sh.quotient_scheme(pentagon, wreath28.hypergroup.neutral_subset())


def test_conjugators_on_thin_s3():
    s3 = sh.from_group(sh.symmetric(3), name="s3")
    subs = s3.closed_subsets()
    assert [tuple(cs.members()) for cs in subs] == [
        (0,),
        (0, 1),
        (0, 2),
        (0, 5),
        (0, 3, 4),
        (0, 1, 2, 3, 4, 5),
    ]
    t = subs[1]
    u = subs[2]
    assert sh.conjugators(s3, t, u) == (4, 5)
    moved = sh.conjugate_subset(s3, t, 4)
    assert tuple(moved.members()) == (0, 2)
    assert sh.conjugators(s3, t, t) == (0, 1)


def test_solvable_chain_scheme_valencies(wreath28):
    chain = sh.solvable_chain_scheme(wreath28)
    assert chain is not None
    vals = [wreath28.hypergroup.valency_of_mask(cs.bits) for cs in chain.subsets]
    assert vals == [1, 2, 4, 28]


def test_validated_thin_scheme_keeps_no_intersection_tensor():
    """A validated 96-point thin scheme keeps its relation matrix, star
    map, valencies and product masks, well under 2 MB; a stored rank**3
    tensor of intersection numbers would take about 8 MB here."""
    matrix = sh.from_group(sh.direct_product(sh.dihedral(12), sh.cyclic(4))).rel
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scheme = sh.validate_scheme(matrix)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scheme.rank == scheme.n_points == 96
    assert kept - before < 2 << 20
    assert peak - before < 4 << 20


def test_scheme_hypergroup_is_cached(pentagon):
    assert pentagon.hypergroup is pentagon.hypergroup
    assert pentagon.closed_subsets() is pentagon.closed_subsets()


PENTAGON = [
    [0, 1, 2, 2, 1],
    [1, 0, 1, 2, 2],
    [2, 1, 0, 1, 2],
    [2, 2, 1, 0, 1],
    [1, 2, 2, 1, 0],
]


def test_validate_scheme_size_cap(monkeypatch):
    # a thin scheme on 96 points must pass the shipped cap
    assert 96 * 96**2 <= scheme_module.SCHEME_SIZE_CAP
    # the pentagon has n * rank**2 = 5 * 3**2 = 45
    monkeypatch.setattr(scheme_module, "SCHEME_SIZE_CAP", 45)
    assert sh.validate_scheme(PENTAGON).rank == 3
    monkeypatch.setattr(scheme_module, "SCHEME_SIZE_CAP", 44)
    with pytest.raises(sh.SchemeTooLargeError, match="n \\* rank\\*\\*2 = 45"):
        sh.validate_scheme(PENTAGON)
    # the cap fires before the per-pair passes: P3 would fail regularity
    monkeypatch.setattr(scheme_module, "SCHEME_SIZE_CAP", 26)
    with pytest.raises(sh.SchemeTooLargeError):
        sh.validate_scheme(P3)
    assert issubclass(sh.SchemeTooLargeError, sh.SchemehallError)


def test_from_group_applies_the_size_cap_before_the_group_checks(monkeypatch):
    calls = []
    real = groups_module.validate_group

    def counted(table):
        calls.append(1)
        return real(table)

    monkeypatch.setattr(groups_module, "validate_group", counted)
    # S3 is thin on 6 points: n * rank**2 = 6**3 = 216
    monkeypatch.setattr(scheme_module, "SCHEME_SIZE_CAP", 6**3 - 1)
    with pytest.raises(sh.SchemeTooLargeError, match="n \\* rank\\*\\*2 = 216"):
        sh.from_group(sh.symmetric(3))
    assert calls == []
    monkeypatch.setattr(scheme_module, "SCHEME_SIZE_CAP", 6**3)
    assert sh.from_group(sh.symmetric(3)).rank == 6
    assert calls == [1]


def test_scheme_closed_subset_is_a_hypergroup_closed_subset(wreath28):
    hg = wreath28.hypergroup
    t = wreath28.closed_subset([0, 1, 2, 3])
    assert isinstance(t, sh.ClosedSubset)
    assert not hasattr(t, "subset")
    assert t == sh.ClosedSubset(hg, t.bits)
    assert hash(t) == hash(sh.ClosedSubset(hg, t.bits))
    assert repr(t) == "{0, 1, 2, 3}"
    # it goes straight into the hypergroup and quotient functions
    assert sh.is_subnormal(t, hg.universe())
    q = sh.quotient(hg, t)
    assert q.modulus == t
    assert sh.project_closed(q, wreath28.hypergroup.universe()) == q.universe()
    assert sh.project_closed(q, t) == q.neutral_subset()
    # subsets of another scheme are still told apart
    other = sh.bundled_scheme("hm176_28").scheme()
    assert other.closed_subset(t.bits) != t


def test_bundled_catalogue_counts():
    expected = {1: 1, 2: 1, 3: 2, 4: 4, 5: 3, 6: 8, 7: 4, 8: 21, 9: 12, 10: 13, 11: 4, 12: 59}
    for order, count in expected.items():
        files = sh.bundled_catalogue(order)
        assert len(files) == count, order
    assert sum(expected.values()) == 132


def _primes_literal(n):
    return {p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))}


def test_pi_predicates_match_the_literal_definition():
    """Every (scheme, pi, closed subset) of the catalogue to order 28:
    pi_predicates, read off a cached mask of the pi-valenced relations
    and cached prime sets, equals the definition relation by relation;
    is_pi_valenced does too.  Each pi is asked as a frozenset and as a
    list, so a cached answer is read back for the same primes."""
    triples = 0
    for scheme in catalogue_schemes(28):
        n = scheme.n_points
        for pi in ALL_PI:
            valenced_rel = [_primes_literal(v) <= pi for v in scheme.valencies]
            assert sh.is_pi_valenced(scheme, pi) == all(valenced_rel), scheme.name
            assert sh.is_pi_valenced(scheme, sorted(pi)) == all(valenced_rel), scheme.name
            for t in scheme.closed_subsets():
                valenced = all(valenced_rel[s] for s in t.members())
                closed_pi = valenced and _primes_literal(t.valency) <= pi
                hall = closed_pi and not _primes_literal(n // t.valency) & pi
                for asked in (pi, sorted(pi)):
                    pp = sh.pi_predicates(scheme, t, asked)
                    got = (pp.is_pi_valenced, pp.is_closed_pi_subset, pp.is_hall_pi_subset)
                    assert got == (valenced, closed_pi, hall), (scheme.name, sorted(pi), t)
                triples += 1
    assert triples == 646 * len(ALL_PI)


def test_mask_hall_tests_match_the_prime_set_definitions():
    """scheme._pi_tests, which compares a closed subset with the mask of
    the pi-valenced relations and its valency with the pi-part of n,
    equals the definitions on every closed subset and every pi inside
    {2, 3, 5, 7}: a closed pi-subset is pi-valenced with a pi-number
    valency, and a Hall one has a pi'-number index too.  The corpus is
    the catalogue to order 28 and the thin schemes of the bundled
    groups; above order 12, the thin scheme of S4 x C2 (48 points) and
    the wreath product of two order-6 schemes (36 points)."""
    cat6 = [sf.scheme() for sf in sh.bundled_catalogue(6)]
    schemes = [
        *catalogue_schemes(28),
        *(sh.from_group(sh.bundled_group(g).table) for g in sh.bundled_group_names()),
        sh.from_group(sh.direct_product(sh.symmetric(4), sh.cyclic(2))),
        sh.validate_scheme(sh.wreath_matrix(cat6[1], cat6[-1])),
    ]
    primes = {}
    seen = set()
    for scheme in schemes:
        n = scheme.n_points
        for pi in ALL_PI:
            valenced = scheme_module._pi_valenced_mask(scheme, pi)
            target = sh.pi_part(n, pi)
            for t in scheme.closed_subsets():
                v = t.valency
                for k in (v, n // v, *scheme.valencies):
                    if k not in primes:
                        primes[k] = _primes_literal(k)
                closed_pi = all(primes[scheme.valencies[s]] <= pi for s in t.members())
                closed_pi = closed_pi and primes[v] <= pi
                hall = closed_pi and not primes[n // v] & pi
                got = scheme_module._pi_tests(scheme, t, valenced, target)
                assert got == (closed_pi, hall), (scheme.name, sorted(pi), t)
                seen.add(got)
    assert len(schemes) == 176
    assert [s.n_points for s in schemes[-2:]] == [48, 36]
    assert len(set(schemes[-1].valencies)) > 2
    assert seen == {(False, False), (True, False), (True, True)}


def test_pi_valenced_mask_tests_each_valency_once(monkeypatch):
    """On a cache miss the mask of the pi-valenced relations asks
    is_pi_number once per distinct valency: once on the thin scheme of
    S4 (rank 24), three times on a rank-8 wreath product with valencies
    1, 4 and 6, and not at all on a hit."""
    calls = []
    real = scheme_module.is_pi_number

    def counted(v, pi):
        calls.append(v)
        return real(v, pi)

    cat6 = [sf.scheme() for sf in sh.bundled_catalogue(6)]
    s4 = sh.from_group(sh.symmetric(4))
    wreath = sh.validate_scheme(sh.wreath_matrix(cat6[1], cat6[-1]))
    monkeypatch.setattr(scheme_module, "is_pi_number", counted)
    for scheme, want in ((s4, [1]), (wreath, [1, 4, 6])):
        assert sh.is_pi_valenced(scheme, {2}) == (scheme is s4)
        assert sorted(calls) == want and scheme.rank > len(want)
        calls.clear()
        assert sh.is_pi_valenced(scheme, [2, 7]) == (scheme is s4)
        assert calls == []


def test_valency_must_divide_n_on_every_path():
    """A closed subset whose valency does not divide n is refused with
    the same InternalInconsistencyError by pi_predicates, the Hall
    filter, conjugating_element and extend_to_hall."""
    s4 = sh.from_group(sh.symmetric(4))
    hg = s4.hypergroup
    bad = sh.ClosedSubset(hg, 1, 5)
    halls = sh.all_hall_subsets(s4, {2})
    message = "closed subset valency must divide n"
    calls = [
        lambda: sh.pi_predicates(s4, bad, {2}),
        lambda: sh.conjugating_element(s4, bad, halls[0], {2}),
        lambda: sh.conjugating_element(s4, halls[0], bad, {2}),
        lambda: sh.extend_to_hall(s4, bad, {2}),
    ]
    for call in calls:
        with pytest.raises(sh.InternalInconsistencyError, match=message):
            call()
    s4.closed_subsets()[3].valency = 5  # the cached lattice the filter reads
    with pytest.raises(sh.InternalInconsistencyError, match=message):
        sh.all_hall_subsets(s4, {2})


def test_is_pi_number_keeps_its_errors_and_pi_containers():
    for n in (0, -1):
        for _ in range(3):
            with pytest.raises(ValueError, match=f"expected a positive integer, got {n}"):
                sh.is_pi_number(n, {2})
    for make in (list, tuple, set, frozenset):
        assert sh.is_pi_number(12, make([2, 3]))
        assert not sh.is_pi_number(12, make([2]))
        assert sh.is_pi_number(1, make([]))
        assert not sh.is_pi_number(7, make([]))
    got = sh.prime_factors(12)
    got.append(5)
    got.remove(3)
    assert sh.prime_factors(12) == [2, 3]
    assert not sh.is_pi_number(12, {2, 5})
    assert sh.is_pi_number(12, {2, 3})


def test_pi_part_is_the_literal_product_of_prime_powers():
    """pi_part reads the cached prime set of n; it must still be the
    product of the full powers of the primes of pi dividing n, for pi
    given as a frozenset and as a list, and keep its error for n < 1."""
    for pi in ALL_PI:
        for n in range(1, 2001):
            want = 1
            for p in pi:
                e = max(k for k in range(n.bit_length()) if n % p**k == 0)
                want *= p**e
            assert sh.pi_part(n, pi) == want, (n, sorted(pi))
            assert sh.pi_part(n, sorted(pi)) == want, (n, sorted(pi))
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"^expected a positive integer, got {n}$"):
            sh.pi_part(n, frozenset({2}))


@pytest.mark.parametrize("bad", [2.5, 3.0, None, "3", True])
def test_pi_rejects_anything_but_a_prime_int(bad, monkeypatch):
    """A float, None, a string or a bool is no prime, even when it
    compares equal to one; find_hall reports it like any non-prime.
    An int above 2**20, past any admitted scheme's order, is refused
    before trial division; the largest prime below the bound is not."""
    assert not sh.is_prime(bad)
    message = f"^{re.escape(repr(bad))} is not prime$"
    with pytest.raises(ValueError, match=message):
        sh.validate_pi([bad])
    with pytest.raises(ValueError, match=message):
        sh.validate_pi([2, bad])
    with pytest.raises(ValueError, match=message):
        sh.find_hall(sh.from_group(sh.cyclic(7)), [bad])
    assert sh.validate_pi([1048573]) == {1048573}
    monkeypatch.setattr(arith, "is_prime", lambda p: pytest.fail("trial division ran"))
    with pytest.raises(ValueError, match=r"^2305843009213693951 is above 2\*\*20, "):
        sh.validate_pi([2**61 - 1])


# the scheme doors that take closed subsets: each asks scheme s about
# one subset t, names the message a subset of anything but s.hypergroup
# gets, and reads its answer in a comparable form
SUBSET_DOORS = (
    (
        "conjugators",
        lambda s, t: sh.conjugators(s, t, t),
        "subset belongs to a different scheme",
        lambda a: a,
    ),
    (
        "conjugate_subset",
        lambda s, t: sh.conjugate_subset(s, t, 1),
        "subset belongs to a different scheme",
        lambda a: a,
    ),
    (
        "pi_predicates",
        lambda s, t: sh.pi_predicates(s, t, [2]),
        "subset belongs to a different scheme",
        repr,
    ),
    (
        "quotient_scheme",
        sh.quotient_scheme,
        "modulus belongs to a different scheme",
        lambda q: (q.scheme.rel, q.blocks),
    ),
    (
        "conjugating_element",
        lambda s, t: sh.conjugating_element(s, t, t, [3]),
        "subset belongs to a different scheme",
        lambda a: a,
    ),
    (
        "extend_to_hall",
        lambda s, t: sh.extend_to_hall(s, t, [3]),
        "subset belongs to a different scheme",
        lambda c: (c.hall, c.o_pi, c.lifted_subgroup),
    ),
)
# the pentagon is not solvable, so the Hall doors ask C3's scheme
HALL_DOORS = {"conjugating_element", "extend_to_hall"}


def _door_scheme(door, pentagon):
    return sh.from_group(sh.cyclic(3)) if door in HALL_DOORS else pentagon


def _ask_door(door, ask, subset_of):
    """call(pentagon) asking the door's scheme about subset_of(scheme)."""
    def call(pentagon):
        s = _door_scheme(door, pentagon)
        return ask(s, subset_of(s))
    return call


@pytest.mark.parametrize("call, error, message", [
    (lambda s: s.closed_subset([1]), sh.NotClosedError, "relation set (1,) is not closed"),
    (lambda s: s.closed_subset([-1]), ValueError, "element -1 is out of range for order 3"),
    (
        lambda s: sh.closure(s.hypergroup.subset([0, -2])),
        ValueError,
        "element -2 is out of range for order 3",
    ),
    (
        lambda s: sh.pi_predicates(
            s, sh.bundled_scheme("pentagon").scheme().hypergroup.universe(), [2]
        ),
        sh.ParentMismatchError,
        "subset belongs to a different scheme",
    ),
    pytest.param(
        lambda s: sh.conjugators(
            s, sh.from_group(sh.cyclic(3)).hypergroup.universe(), s.hypergroup.universe()
        ),
        sh.ParentMismatchError,
        "subset belongs to a different scheme",
        id="conjugators-foreign-first",
    ),
    pytest.param(
        lambda s: sh.conjugators(
            s, s.hypergroup.universe(), sh.from_group(sh.cyclic(3)).hypergroup.universe()
        ),
        sh.ParentMismatchError,
        "subset belongs to a different scheme",
        id="conjugators-foreign-second",
    ),
    pytest.param(
        lambda s: sh.conjugate_subset(s, sh.from_group(sh.cyclic(3)).hypergroup.universe(), 1),
        sh.ParentMismatchError,
        "subset belongs to a different scheme",
        id="conjugate_subset-foreign",
    ),
    *(
        pytest.param(
            lambda s, r=r: sh.conjugate_subset(s, s.hypergroup.universe(), r),
            ValueError,
            f"relation {r} is out of range for rank 3",
            id=f"conjugate_subset-relation-{r}",
        )
        for r in (3, -1, True)
    ),
    *(
        pytest.param(
            lambda s, r=r: s.intersection_numbers(r),
            ValueError,
            f"relation {r} is out of range for rank 3",
            id=f"intersection_numbers-relation-{r}",
        )
        for r in (99, -1, True)
    ),
    # the universe of a validated copy of the scheme's hypergroup
    *(
        pytest.param(
            _ask_door(door, ask, lambda s: sh.validate_hypergroup(s.hypergroup.table).universe()),
            sh.ParentMismatchError,
            message,
            id=f"{door}-hypergroup-subset",
        )
        for door, ask, message, _ in SUBSET_DOORS
    ),
    # every relation of the scheme, as a subset that is not a ClosedSubset
    *(
        pytest.param(
            _ask_door(door, ask, lambda s: s.hypergroup.subset(s.hypergroup.full_mask)),
            sh.ParentMismatchError,
            message,
            id=f"{door}-element-subset",
        )
        for door, ask, message, _ in SUBSET_DOORS
    ),
    pytest.param(
        lambda s: s.hypergroup.subset(True), ValueError, "mask True is not an int", id="subset-bool",
    ),
    pytest.param(
        lambda s: s.closed_subset(True), ValueError, "mask True is not an int", id="closed_subset-bool",
    ),
])
def test_scheme_input_checks(pentagon, call, error, message):
    with pytest.raises(error) as exc:
        call(pentagon)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "door, ask, answer", [pytest.param(d, a, r, id=d) for d, a, _, r in SUBSET_DOORS]
)
def test_scheme_doors_take_their_hypergroups_closed_subsets(pentagon, door, ask, answer):
    """A closed subset of scheme.hypergroup is a closed set of relations:
    its universe gets the answer closed_subset of every relation gets."""
    s = _door_scheme(door, pentagon)
    got = ask(s, s.hypergroup.universe())
    want = ask(s, s.closed_subset(range(s.rank)))
    assert answer(got) == answer(want)
