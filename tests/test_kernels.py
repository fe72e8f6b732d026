"""The bitmask kernels against the plain loops they replaced.

The oracles below are the product, closure, closedness, enumeration
and associativity loops written out the slow way, copied here so the
comparison never runs the code under test: a double loop for products,
the fixpoint cur -> cur | cur^ | cur*cur for closure, the definition
A^A inside A for closedness, the worklist of singleton-closure joins
for enumeration (and the cyclic-extension walk in oracles.py, which
the Close-by-One walk replaced), and the triple loops over (p, q, r)
for H1 and over (a, b, c) for group associativity.  They run over every corpus
hypergroup, the thin hypergroups of all bundled groups (order <= 24)
and the hypergroups of the order-28 catalogue schemes.  The thin
tables (groups, the quotients the Hall contexts build and a 96-point
group) are also checked against the set-valued validation loops, the
quotient table against a product of cosets per pair, and strong
normality against its two-product definition.  The product and star
kernels, which walk the member tuples bits_of reads off its tables,
are checked against the low-bit loops in oracles.py that they replaced
on every scheme of the residue corpus, and so is H // {0}, against the
quotient of the restriction copy; bits_of itself against a literal
scan of the bits.
Conjugation, normality and subnormality, each read off one kernel, are
checked against their two-product spellings and a pairwise chain
search in oracles.py.  Light's associativity test, which tests only a
generating set, is checked against the (a, b, c) triple loop on the
bundled groups, relabelled copies and copies with an intercalate
swapped; the derived series, closed from the commutators of a
generating set, against the all-pairs series in oracles.py; strong
normality in the whole hypergroup, tested on a generating set and its
stars alone, against the scan over every element.

The operation-count guards at the end count calls, not time.
"""
from __future__ import annotations

import functools
import itertools
import random
import sys

import pytest

import schemehall as sh
from schemehall.hypergroup import (
    Hypergroup,
    _associativity_witness,
    _conjugates,
    _enumerate_closed,
    _generators,
    _h1_witness,
    bits_of,
    mask_of,
)
from schemehall.groups import _derived_series
from schemehall.scheme import _pi_facts

from conftest import (
    ALL_PI,
    catalogue_schemes,
    corpus_hypergroups,
    product_matrices,
    residue_corpus,
    row_reading_copy,
)
from oracles import (
    closed_subsets_cyclic_extension,
    conjugate_mul_masks,
    derived_series_all_pairs,
    mul_masks_low_bit,
    normalizes_mul_masks,
    star_mask_low_bit,
    subnormal_chain_search,
    subquotient_over_parent,
)


def _members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def mul_oracle(hg, left, right):
    out = 0
    for a in _members(left):
        row = hg.table[a]
        for b in _members(right):
            out |= row[b]
    return out


def star_oracle(hg, mask):
    out = 0
    for s in _members(mask):
        out |= 1 << hg.inverse[s]
    return out


def closure_oracle(hg, mask):
    cur = mask | 1
    while True:
        nxt = cur | star_oracle(hg, cur) | mul_oracle(hg, cur, cur)
        if nxt == cur:
            return cur
        cur = nxt


def is_closed_oracle(hg, mask):
    return mask != 0 and mul_oracle(hg, star_oracle(hg, mask), mask) | mask == mask


def enumerate_oracle(hg):
    singles = sorted({closure_oracle(hg, 1 << s) for s in range(hg.size)})
    found = set(singles)
    work = list(singles)
    while work:
        cur = work.pop()
        for s in singles:
            joined = cur | s
            if joined != cur:
                joined = closure_oracle(hg, joined)
            if joined not in found:
                found.add(joined)
                work.append(joined)
    return sorted(found, key=lambda m: (m.bit_count(), tuple(_members(m))))


def h1_oracle(masks):
    k = len(masks)
    for p in range(k):
        for q in range(k):
            pq = masks[p][q]
            for r in range(k):
                lhs = 0
                for x in _members(masks[q][r]):
                    lhs |= masks[p][x]
                rhs = 0
                for y in _members(pq):
                    rhs |= masks[y][r]
                if lhs != rhs:
                    return (p, q, r)
    return None


def group_assoc_oracle(t):
    n = len(t)
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[a][t[b][c]]:
                    return (a, b, c)
    return None


@functools.cache
def kernel_pool():
    """The pool the property tests run over, one hypergroup per distinct table."""
    hgs = [
        *corpus_hypergroups(12),
        *(sh.thin_hypergroup(sh.bundled_group(n).table) for n in sh.bundled_group_names()),
        *(sf.scheme().hypergroup for sf in sh.bundled_catalogue(28)),
    ]
    pool = {}
    for hg in hgs:
        pool.setdefault((hg.table, hg.inverse), hg)
    return tuple(pool.values())


def fresh(hg):
    return Hypergroup(hg.table, hg.inverse, hg.name)


def random_masks(rng, hg, count):
    return [rng.randrange(1, 1 << hg.size) for _ in range(count)]


def test_mul_masks_matches_double_loop():
    assert {1, 12, 24, 28} <= {hg.size for hg in kernel_pool()}
    rng = random.Random(1)
    for hg in kernel_pool():
        full = hg.full_mask
        pairs = [(0, full), (full, 0), (full, full)]
        pairs += [(rng.randrange(1 << hg.size), rng.randrange(1 << hg.size)) for _ in range(40)]
        for left, right in pairs:
            assert hg.mul_masks(left, right) == mul_oracle(hg, left, right), (hg.name, left, right)


def test_bits_of_lists_the_set_bits():
    """bits_of, read off its per-chunk tables, against the literal scan
    on every mask below 2**12 and on seeded masks of up to 200 bits,
    whose chunk tables it builds as the masks reach them."""
    for m in range(1 << 12):
        assert bits_of(m) == tuple(_members(m)), m
    rng = random.Random(22)
    for width in range(13, 201):
        for m in (rng.getrandbits(width), (1 << width) - 1, 1 << (width - 1)):
            assert bits_of(m) == tuple(_members(m)), m


def test_bits_of_at_its_chunk_edges():
    """bits_of against the literal scan on each side of the one-, two-
    and three-chunk reads and the general loop past them, and on a
    fixed 100-bit mask."""
    wide = int("c3" * 12 + "a", 16)  # bits 1 and 3 and 98 and 99 among others
    assert wide.bit_length() == 100
    for m in (0, 1, 255, 256, 65535, 65536, (1 << 24) - 1, 1 << 24, wide):
        assert bits_of(m) == tuple(_members(m)), m


def test_table_kernels_match_the_low_bit_loops():
    """On the hypergroup of every scheme of the residue corpus, mul_masks
    and star_mask equal their low-bit loops on seeded random masks,
    and H // {0}, which shares H's table, equals the quotient of the
    validated restriction copy and keeps the name the double-coset
    kernel gave it."""
    rng = random.Random(13)
    sizes = set()
    for scheme in residue_corpus():
        hg = scheme.hypergroup
        sizes.add(hg.size)
        full = hg.full_mask
        masks = [0, 1, full, *(1 << s for s in range(hg.size)), *random_masks(rng, hg, 12)]
        for mask in masks:
            assert hg.star_mask(mask) == star_mask_low_bit(hg, mask), (scheme.name, mask)
        for left in masks[:3] + masks[-12:]:
            for right in masks[:3] + masks[-12:]:
                got = hg.mul_masks(left, right)
                assert got == mul_masks_low_bit(hg, left, right), (scheme.name, left, right)
        q = sh.quotient(hg, hg.neutral_subset())
        got = (q.table, q.inverse, q.cosets, q.coset_of)
        assert got == subquotient_over_parent(hg, hg.universe(), hg.neutral_subset()), scheme.name
        assert q.name == f"{hg.name}//(0,)"
        assert q.parent is hg and q.modulus == hg.neutral_subset()
    assert {1, 24, 60, 96} <= sizes


def test_closure_matches_fixpoint():
    rng = random.Random(2)
    for hg in kernel_pool():
        masks = [1 << s for s in range(hg.size)] + random_masks(rng, hg, 20) + [hg.full_mask]
        for mask in masks:
            assert hg.closure_mask(mask) == closure_oracle(hg, mask), (hg.name, mask)


def test_is_closed_matches_definition_and_enumeration_matches_worklist():
    rng = random.Random(3)
    for hg in kernel_pool():
        want = enumerate_oracle(hg)
        got = sh.enumerate_closed_subsets(fresh(hg))
        assert [c.bits for c in got] == want, hg.name
        near = [c ^ 1 << rng.randrange(hg.size) for c in want]
        for mask in [0, *want, *near, *random_masks(rng, hg, 20)]:
            closed = hg.is_closed_mask(mask)
            assert closed == is_closed_oracle(hg, mask), (hg.name, mask)
            # the three-way criterion: 0 in T, T^ = T and T^T = T
            star = star_oracle(hg, mask)
            three = mask & 1 == 1 and star == mask and mul_oracle(hg, star, mask) == mask
            assert closed == three, (hg.name, mask)


def _corrupt_cell(rng, rows, change):
    """A copy of rows with one cell off the neutral row and column changed."""
    out = [list(row) for row in rows]
    a, b = rng.randrange(1, len(out)), rng.randrange(1, len(out))
    old = out[a][b]
    new = old
    while new == old:
        new = change(rng, old)
    out[a][b] = new
    return out


def _flip_one_bit(k):
    return lambda rng, old: (old ^ 1 << rng.randrange(k)) or old


def test_h1_witness_matches_triple_loop_on_corrupted_tables():
    rng = random.Random(4)
    reached = 0
    for hg in kernel_pool():
        if hg.size < 3:
            continue
        assert _h1_witness(hg.table) is None
        for _ in range(8):
            bad = _corrupt_cell(rng, hg.table, _flip_one_bit(hg.size))
            want = h1_oracle(bad)
            assert _h1_witness(bad) == want, hg.name
            try:
                sh.validate_hypergroup(bad)
            except sh.AssocViolationError as exc:
                assert exc.witness == want, hg.name
                assert str(exc) == "associativity fails at triple ({}, {}, {})".format(*want)
                reached += 1
            except sh.HypergroupAxiomError:
                pass  # H2 and H3 are checked first
            else:
                assert want is None, hg.name
    assert reached >= 10


def test_group_associativity_witness_matches_triple_loop():
    """On the bundled groups Light's test passes on the thin hypergroup's
    generators; copies with one cell changed are not Latin, outside the
    test's precondition, so every b is tested, and the first witness is
    the triple loop's."""
    rng = random.Random(5)
    tables = [sh.bundled_group(n).table for n in sh.bundled_group_names()]
    for t in tables:
        hg = sh.thin_hypergroup(t)
        assert _associativity_witness(t, bits_of(_generators(hg, hg.full_mask))) is None
        n = len(t)
        if n == 1:
            continue
        for _ in range(8):
            bad = _corrupt_cell(rng, t, lambda rng, old: rng.randrange(n))
            bad = tuple(tuple(row) for row in bad)
            assert _associativity_witness(bad, range(n)) == group_assoc_oracle(bad), n


def _intercalates(t):
    """The 2 x 2 Latin subsquares of t off row and column 0 and off the
    value 0, as (a, a2, b, c) with t[a][b] = t[a2][c] and t[a][c] = t[a2][b]."""
    n = len(t)
    row_of = [{t[y][x]: y for y in range(n)} for x in range(n)]  # by column, value
    out = []
    for a in range(1, n):
        for b, c in itertools.combinations(range(1, n), 2):
            x, y = t[a][b], t[a][c]
            a2 = row_of[b][y]
            if x and y and a2 > a and t[a2][c] == x:
                out.append((a, a2, b, c))
    return out


def test_light_associativity_witness_matches_triple_loop():
    """Light's test, which checks associativity on a generating set only,
    names the triple loop's first witness through validate_group: on
    every bundled group and C2 x C4, on relabelled copies that fix 0
    (whose generating sets differ) and on copies with one intercalate
    swapped, which stay Latin loops with identity 0 and the same
    inverses, so within the test's precondition."""
    rng = random.Random(26)
    tables = [(n, sh.bundled_group(n).table) for n in sh.bundled_group_names()]
    tables.append(("c2xc4", sh.direct_product(sh.cyclic(2), sh.cyclic(4))))
    failing = 0
    for name, t in tables:
        n = len(t)
        relabelled = [
            tuple(map(tuple, _relabel(t, [0, *rng.sample(range(1, n), n - 1)])))
            for _ in range(2)
        ]
        for copy in (t, *relabelled):
            assert sh.validate_group(copy) == copy, name
            squares = _intercalates(copy)
            for a, a2, b, c in rng.sample(squares, min(20, len(squares))):
                rows = [list(row) for row in copy]
                rows[a][b], rows[a][c] = rows[a][c], rows[a][b]
                rows[a2][b], rows[a2][c] = rows[a2][c], rows[a2][b]
                bad = tuple(map(tuple, rows))
                want = group_assoc_oracle(bad)
                try:
                    sh.validate_group(bad)
                except sh.NotAGroupError as exc:
                    assert str(exc) == "associativity fails at ({}, {}, {})".format(*want), name
                else:
                    assert want is None, name
                failing += want is not None
    assert failing > 1000, failing


def test_light_test_builds_a_row_reader_per_generator(monkeypatch):
    """from_group on C2^6 tests associativity on its greedy generating
    set, six involutions with no identity: 6 row readers and 6 * 64 row
    comparisons, where testing every b builds 64 readers.  On D32 x C16,
    of order 1,024, it reads 3 rows."""
    hypergroup_module = sys.modules["schemehall.hypergroup"]
    readers = []
    reads = []
    real = hypergroup_module.itemgetter

    def counted(*items):
        readers.append(items)
        read = real(*items)

        def counted_read(row):
            reads.append(items)
            return read(row)

        return counted_read

    table = sh.cyclic(2)
    for _ in range(5):
        table = sh.direct_product(table, sh.cyclic(2))
    monkeypatch.setattr(hypergroup_module, "itemgetter", counted)
    assert sh.from_group(table).n_points == 64
    assert len(readers) == 6
    assert len(reads) == 6 * 64
    readers.clear()
    assert sh.thin_hypergroup(sh.direct_product(sh.dihedral(32), sh.cyclic(16))).size == 1024
    assert len(readers) == 3


def test_derived_series_matches_all_pairs():
    """The commutators of a generating set with the whole step, read off
    the thin hypergroup and closed by closure_mask, generate the same
    derived subgroup as those of every pair closed on the index table: on
    every bundled group, on A5, which is perfect, on S4 x C4, and past
    order 96 on S4 x C2^3 and A5 x C2."""
    c2 = sh.cyclic(2)
    s4c2cube = sh.direct_product(sh.direct_product(sh.symmetric(4), c2), sh.direct_product(c2, c2))
    a5c2 = sh.direct_product(sh.alternating(5), c2)
    tables = [sh.bundled_group(n).table for n in sh.bundled_group_names()]
    tables += [sh.alternating(5), sh.direct_product(sh.symmetric(4), sh.cyclic(4)), s4c2cube, a5c2]
    lengths = set()
    orders = {}
    for t in tables:
        series = _derived_series(sh.thin_hypergroup(t))
        assert series == derived_series_all_pairs(t), len(t)
        lengths.add(len(series))
        orders[len(t)] = [d.bit_count() for d in series]
    assert _derived_series(sh.thin_hypergroup(sh.alternating(5))) == [(1 << 60) - 1]
    assert {1, 2, 3, 4} <= lengths
    assert orders[192] == [192, 12, 4, 1]
    assert orders[120] == [120, 60]


def _intercalate_swaps(t):
    """Latin squares one 2x2 swap away from t, identity row and column kept."""
    n = len(t)
    for a in range(1, n):
        for a2 in range(a + 1, n):
            for b in range(1, n):
                for b2 in range(b + 1, n):
                    if t[a][b] == t[a2][b2] and t[a][b2] == t[a2][b]:
                        rows = [list(row) for row in t]
                        rows[a][b], rows[a][b2] = t[a][b2], t[a][b]
                        rows[a2][b], rows[a2][b2] = t[a2][b2], t[a2][b]
                        yield rows


def test_validate_group_names_the_first_failing_triple():
    reached = 0
    for name in sh.bundled_group_names():
        t = sh.bundled_group(name).table
        for bad in itertools.islice(_intercalate_swaps(t), 6):
            want = group_assoc_oracle(bad)
            try:
                sh.validate_group(bad)
            except sh.NotAGroupError as exc:
                if "associativity" in str(exc):
                    assert str(exc) == "associativity fails at ({}, {}, {})".format(*want)
                    reached += 1
                # an inverse that moved is reported before associativity
            else:
                assert want is None, name
    assert reached >= 10


# --- thin tables -------------------------------------------------------------
#
# validate_hypergroup as it reads every table: the neutral column, the
# inverse search, H3 over every (p, q, r in pq) and H1 by the triple
# loop (by _h1_witness, itself checked against that loop above, past 24
# elements).


def validate_oracle(table):
    """(table, inverse) of a valid mask table, or (error type, message)."""
    k = len(table)
    masks = [list(row) for row in table]
    try:
        candidates = [e for e in range(k) if all(masks[s][e] == 1 << s for s in range(k))]
        if not candidates:
            raise sh.NoNeutralError("no element acts as a right neutral")
        if len(candidates) > 1:
            raise sh.NoNeutralError(f"multiple right neutral elements: {candidates}")
        e = candidates[0]
        inv = []
        for s in range(k):
            ts = [t for t in range(k) if masks[t][s] >> e & 1]
            if len(ts) != 1:
                raise sh.NoInverseError(
                    f"element {s} has {len(ts)} inverse candidates {ts}, expected 1"
                )
            inv.append(ts[0])
        for p in range(k):
            for q in range(k):
                for r in _members(masks[p][q]):
                    if not masks[inv[p]][r] >> q & 1:
                        raise sh.NoInverseError(
                            f"H3 fails: {r} in {p}*{q} but {q} not in inv({p})*{r}"
                        )
                    if not masks[r][inv[q]] >> p & 1:
                        raise sh.NoInverseError(
                            f"H3 fails: {r} in {p}*{q} but {p} not in {r}*inv({q})"
                        )
        witness = h1_oracle(masks) if k <= 24 else _h1_witness(masks)
        if witness is not None:
            raise sh.AssocViolationError(*witness)
    except sh.HypergroupAxiomError as exc:
        return type(exc), str(exc)
    perm = list(range(k))
    perm[0], perm[e] = e, 0
    new = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            new[perm[a]][perm[b]] = sum(1 << perm[s] for s in _members(masks[a][b]))
    new_inv = [0] * k
    for s in range(k):
        new_inv[perm[s]] = perm[inv[s]]
    return tuple(map(tuple, new)), tuple(new_inv)


def validate_outcome(table):
    try:
        hg = sh.validate_hypergroup(table)
    except sh.HypergroupAxiomError as exc:
        return type(exc), str(exc)
    return hg.table, hg.inverse


def _thin(t):
    return [[1 << v for v in row] for row in t]


def group_agrees(rows, want):
    """On a table whose row 0 and column 0 are the identity,
    validate_group accepts exactly when validate_hypergroup does (want is
    the validate_oracle outcome); so a thin table that passed H1-H3 needs
    no second group check.  False when the table has no such identity."""
    n = len(rows)
    if list(rows[0]) != list(range(n)) or [row[0] for row in rows] != list(range(n)):
        return False
    try:
        sh.validate_group(rows)
    except sh.NotAGroupError:
        assert not isinstance(want[0], tuple), n
    else:
        assert isinstance(want[0], tuple), n
    return True


def _relabel(t, perm):
    """t with each label x renamed perm[x]."""
    n = len(t)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[t[a][b]]
    return out


def _neutral_last(t):
    n = len(t)
    return _relabel(t, [n - 1, *range(1, n - 1), 0])


@functools.cache
def thin_pool():
    """Index tables: the bundled groups, for each Hall certificate of the
    catalogue both the quotient by the thin residue it carries and the
    quotient by its pi-core, and D12 x C4 on 96 points."""
    tables = [sh.bundled_group(name).table for name in sh.bundled_group_names()]
    for scheme in catalogue_schemes(28):
        for pi in ALL_PI[1:]:
            try:
                cert = sh.find_hall(scheme, pi)
            except (sh.NotPiValencedError, sh.NotSolvableError):
                continue
            for q in (cert.hyper_quotient, sh.quotient(scheme.hypergroup, cert.o_pi)):
                tables.append(tuple(tuple(m.bit_length() - 1 for m in row) for row in q.table))
    tables.append(sh.direct_product(sh.dihedral(12), sh.cyclic(4)))
    return tuple(dict.fromkeys(tuple(map(tuple, t)) for t in tables))


def test_thin_validation_matches_set_valued_loops():
    pool = thin_pool()
    assert len(pool) == 52 and max(map(len, pool)) == 96
    as_group = 0
    for t in pool:
        for table in (t, _neutral_last(t)) if len(t) > 1 else (t,):
            raw = _thin(table)
            want = validate_oracle(raw)
            assert isinstance(want[0], tuple), len(t)
            assert validate_outcome(raw) == want, len(t)
            as_group += group_agrees(table, want)
    assert as_group == len(pool)


def _row_swaps(t, rng):
    """One row with two nonzero entries exchanged: the inverse search
    still finds one candidate each, but row p^ read through row p is no
    longer the identity, so H3 fails."""
    n = len(t)
    for _ in range(4):
        rows = [list(row) for row in t]
        a = rng.randrange(1, n)
        b, b2 = rng.sample([b for b in range(1, n) if t[a][b] != 0], 2)
        rows[a][b], rows[a][b2] = rows[a][b2], rows[a][b]
        yield rows


def _chein_loop(t):
    """The Moufang loop M(G, 2) on G and Gu: an inverse-property loop,
    so H2 and H3 hold, and associative only when G is abelian."""
    n = len(t)
    inv = [row.index(0) for row in t]
    out = [[0] * 2 * n for _ in range(2 * n)]
    for g in range(n):
        for h in range(n):
            out[g][h] = t[g][h]
            out[g][n + h] = n + t[h][g]
            out[n + g][h] = n + t[g][inv[h]]
            out[n + g][n + h] = t[inv[h]][g]
    return out


def test_thin_corruptions_name_the_literal_witness():
    """Intercalate swaps and row swaps of the pool tables break H3 (of
    the intercalate swaps of the pool tables of order 4 to 16, none
    reaches H1); the Moufang loops of the nonabelian bundled groups of
    order <= 12, relabelled at random, fail only H1."""
    rng = random.Random(8)
    bad = []
    for t in thin_pool():
        if 4 <= len(t) <= 24:
            bad += [*itertools.islice(_intercalate_swaps(t), 6), *_row_swaps(t, rng)]
    for name in sh.bundled_group_names():
        t = sh.bundled_group(name).table
        if len(t) <= 12:
            loop = _chein_loop(t)
            n = len(loop)
            bad += [loop] + [_relabel(loop, rng.sample(range(n), n)) for _ in range(4)]
    reached = {}
    as_group = 0
    for rows in bad:
        want = validate_oracle(_thin(rows))
        assert validate_outcome(_thin(rows)) == want, len(rows)
        kind = want[0] if isinstance(want[0], type) else None
        reached[kind] = reached.get(kind, 0) + 1
        as_group += group_agrees(rows, want)
    assert reached.get(sh.AssocViolationError, 0) >= 20
    assert reached.get(sh.NoInverseError, 0) >= 100
    assert as_group >= 300  # the others lost the identity row or column 0


def quotient_table_oracle(hg, f):
    """(cosets, table) with each cell built from two products of masks."""
    cosets = []
    remaining = hg.full_mask
    while remaining:
        h = remaining & -remaining
        coset = mul_oracle(hg, mul_oracle(hg, f, h), f)
        cosets.append(coset)
        remaining &= ~coset
    coset_of = {x: i for i, c in enumerate(cosets) for x in _members(c)}
    reps = [_members(c)[0] for c in cosets]
    table = tuple(
        tuple(
            sum(
                {1 << coset_of[x] for x in _members(mul_oracle(hg, mul_oracle(hg, 1 << a, f), 1 << b))}
            )
            for b in reps
        )
        for a in reps
    )
    return tuple(cosets), table


def test_quotient_table_matches_coset_products():
    count = 0
    for scheme in catalogue_schemes(28):
        hg = scheme.hypergroup
        for c in scheme.closed_subsets():
            q = sh.quotient(hg, c)
            assert (q.cosets, q.table) == quotient_table_oracle(hg, c.bits), scheme.name
            count += 1
    assert count >= 646


def strongly_normal_oracle(hg, f, g):
    for h in _members(g):
        conj = mul_oracle(hg, mul_oracle(hg, 1 << hg.inverse[h], f), 1 << h)
        if conj & ~f:
            return False
    return True


def test_is_strongly_normal_matches_two_products():
    rng = random.Random(9)
    seen = set()
    for hg in kernel_pool():
        subs = [c.bits for c in sh.enumerate_closed_subsets(hg)]
        pairs = [(f, g) for f in subs for g in subs if f & ~g == 0]
        pairs += [(m, hg.full_mask) for m in random_masks(rng, hg, 10)]
        for f, g in pairs:
            got = sh.is_strongly_normal(hg.subset(f), hg.subset(g))
            assert got == strongly_normal_oracle(hg, f, g), (hg.name, f, g)
            seen.add(got)
    assert seen == {True, False}


def test_strong_normality_on_generators_matches_the_full_scan():
    """is_strongly_normal in the whole hypergroup conjugates by a
    generating set and its stars alone; it equals the scan over every
    element on each closed subset of the 174 corpus hypergroups (the
    catalogue to order 28 and the bundled groups; 508 of 937 are
    strongly normal), and of the thin schemes of S4 x C2 and D8 x C4 and
    the one-element hypergroup, whose generating set is empty (47 of 224
    strongly normal)."""
    def scan(hg, f):
        return all(not conj & ~f for _, conj in _conjugates(hg, f, hg.full_mask))

    corpus = [
        *(s.hypergroup for s in catalogue_schemes(28)),
        *(sh.thin_hypergroup(sh.bundled_group(n).table) for n in sh.bundled_group_names()),
    ]
    larger = [
        sh.from_group(sh.direct_product(sh.symmetric(4), sh.cyclic(2))).hypergroup,
        sh.from_group(sh.direct_product(sh.dihedral(8), sh.cyclic(4))).hypergroup,
        sh.thin_hypergroup(sh.cyclic(1)),
    ]
    counts = []
    for hgs in (corpus, larger):
        checked = strong = 0
        for hg in hgs:
            universe = hg.universe()
            for c in sh.enumerate_closed_subsets(hg):
                want = scan(hg, c.bits)
                assert sh.is_strongly_normal(c, universe) == want, (hg.name, c)
                checked += 1
                strong += want
        counts.append((len(hgs), checked, strong))
    assert counts == [(174, 937, 508), (3, 98 + 125 + 1, 47)]
    assert _generators(larger[-1], larger[-1].full_mask) == 0


# --- operation-count guards -------------------------------------------------


def test_closure_multiplies_each_element_once():
    """Semi-naive closure on S4 reads the row of each element of the
    closure at most once: the frontiers, whose rows each round reads,
    are disjoint and lie in the closure.  The fixpoint cur -> cur * cur
    reads some row twice on every singleton of order above 2."""
    hg, reads = row_reading_copy(sh.thin_hypergroup(sh.symmetric(4)))
    rng = random.Random(6)
    for mask in [1 << s for s in range(24)] + random_masks(rng, hg, 30) + [hg.full_mask]:
        reads.clear()
        got = hg.closure_mask(mask)
        assert len(reads) == len(set(reads)), mask
        assert mask_of(reads) & ~got == 0, mask


@pytest.fixture
def counted_closures(monkeypatch):
    """Masks of every Hypergroup.closure_mask call, in order."""
    calls = []
    original = Hypergroup.closure_mask

    def counted(self, mask, stop=0):
        calls.append(mask)
        return original(self, mask, stop)

    monkeypatch.setattr(Hypergroup, "closure_mask", counted)
    return calls


def test_enumeration_closes_less_often(counted_closures):
    """The full walk on a fresh thin S4 (30 closed subsets) and S4 x C2^3
    (192 elements, 2,398 closed subsets): Close-by-One makes 134 and
    23,726 closure_mask calls, 16 and 135 of them for the singleton
    closures of the inverse pairs and the rest for extensions that pass
    the FCbO rule, and reads 591 and 145,346 table rows.  No subset it
    returns is checked closed again, as closure_mask's exit test proved
    it: that check read 143 and 27,579 more rows.  A rejected closure
    stops at the first round that meets its stop mask, and the partial
    closure it leaves is a weaker bound for the children than the whole
    one, so a few more extensions are closed than when every closure ran
    to the end (133 and 23,675 calls), in far fewer rows (1,717 and
    773,433).  The closures of the group proof, made before the walk,
    are not counted."""
    c2_3 = functools.reduce(sh.direct_product, [sh.cyclic(2)] * 3)
    counts = []
    for table in (sh.symmetric(4), sh.direct_product(sh.symmetric(4), c2_3)):
        hg, reads = row_reading_copy(sh.thin_hypergroup(table))
        counted_closures.clear()
        counts.append((len(sh.enumerate_closed_subsets(hg)), len(counted_closures), len(reads)))
    assert counts == [(30, 134, 591), (2398, 23726, 145346)]


def test_enumeration_closes_at_most_ten_times_per_closed_subset(counted_closures):
    """The full walk on thin C2^5, D8 x C4 and S4 x C2 makes at most 10
    closure_mask calls per closed subset it finds (about 4, 7 and 6);
    the cyclic-extension walk in oracles.py makes 25 to 31."""
    c2 = sh.cyclic(2)
    c2_5 = functools.reduce(sh.direct_product, [c2] * 5)
    for table in (
        c2_5,
        sh.direct_product(sh.dihedral(8), sh.cyclic(4)),
        sh.direct_product(sh.symmetric(4), c2),
    ):
        hg = sh.thin_hypergroup(table)
        counted_closures.clear()
        found = len(sh.enumerate_closed_subsets(hg))
        assert len(counted_closures) <= 10 * found, (len(table), found)


def test_hall_queries_walk_only_closed_pi_subsets(monkeypatch):
    """find_hall on a fresh S4 scheme, its residue series built first,
    and its generating set, which the group proof picked, read by
    strong normality with no closure: the {2} walk starts at the
    2-core V4, stops at the Hall valency 8 and makes fewer closures
    than a full walk of the same lattice (27 and 134 under Close-by-One;
    30 when it extended the Hall subsets too, 75 when it walked every
    closed 2-subset), the {3} walk, from the 3-core {0}, fewer again
    (16; 22 when it extended the Hall subsets), and {2, 3} and {} (Hall
    subsets S4 and {0}) none.  Each walk is given a leaf.  No walk of
    the whole lattice is made, and none is left cached.  Only closures
    on the scheme's hypergroup count: the Hall subgroups of G are
    joined on its residue quotient."""
    closures = []
    keeps = []
    original_closure = Hypergroup.closure_mask

    def counted_closure(self, mask, stop=0):
        if s4 is not None and self is s4.hypergroup:
            closures.append(mask)
        return original_closure(self, mask, stop)

    def counted_walk(hg, keep, bottom=1, leaf=None):
        keeps.append((keep, bottom, leaf))
        return _enumerate_closed(hg, keep, bottom, leaf)

    monkeypatch.setattr(Hypergroup, "closure_mask", counted_closure)
    for name in ("schemehall.hypergroup", "schemehall.hall"):
        monkeypatch.setattr(sys.modules[name], "_enumerate_closed", counted_walk)
    made = {}
    cores = {}
    once = set()
    s4 = None  # counted_closure reads s4; from_group's group proof closes before it is bound
    for pi in ({2}, {3}, {2, 3}, set()):
        s4 = sh.from_group(sh.symmetric(4))
        assert sh.is_solvable_scheme(s4)
        closures.clear()
        hg = s4.hypergroup
        sh.is_strongly_normal(hg.subset(1), hg.universe())  # reads the cached generating set
        once.add((len(closures), hg._gens))
        closures.clear()
        cert = sh.find_hall(s4, pi)
        assert cert.hall.valency == sh.pi_part(24, frozenset(pi))
        assert s4.hypergroup._closed is None
        made[frozenset(pi)] = len(closures)
        cores[frozenset(pi)] = cert.o_pi
    (prep, gens), = once
    assert prep == 0 and 0 < gens.bit_count() < 24
    s4 = sh.from_group(sh.symmetric(4))
    closures.clear()
    _enumerate_closed(s4.hypergroup, None)
    assert len(closures) == 134
    assert made == {
        frozenset({2}): 27, frozenset({3}): 16, frozenset({2, 3}): 0, frozenset(): 0
    }
    assert [c.valency for c in cores.values()] == [4, 1, 24, 1]
    assert [bottom for _, bottom, _ in keeps] == [cores[frozenset({2})].bits, 1]
    assert None not in [keep for keep, _, _ in keeps] + [leaf for _, _, leaf in keeps]


def test_second_pi_closes_no_singleton(monkeypatch):
    """On one fresh S4 scheme the {2} query builds, for its walk, the
    attributes (16 singleton closures); the {3} walk after it closes no
    singleton and makes fewer closures than on a fresh scheme, and
    {2, 3} and {} make none.  Only closures on the scheme's hypergroup
    count, not those joining the Hall subgroups of its residue quotient.
    The whole hypergroup's generating set is picked once per table: by
    the group proof on each scheme's hypergroup, whose residue factor
    S // {0}, a hypergroup of its own on that table, is given the set
    rather than picking it again; the queries pick none."""
    closures = []
    picks = []
    original_closure = Hypergroup.closure_mask
    original_generators = _generators

    def counted_closure(self, mask, stop=0):
        if s4 is not None and self is s4.hypergroup:
            closures.append(mask)
        return original_closure(self, mask, stop)

    def counted_generators(hg, mask):
        if mask == hg.full_mask and hg._gens is None:
            picks.append(hg)
        return original_generators(hg, mask)

    monkeypatch.setattr(Hypergroup, "closure_mask", counted_closure)
    for name in ("schemehall.hypergroup", "schemehall.groups"):
        monkeypatch.setattr(sys.modules[name], "_generators", counted_generators)
    s4 = None  # counted_closure reads s4; from_group's group proof closes before it is bound
    s4 = sh.from_group(sh.symmetric(4))  # a fresh scheme for the {3} walk alone
    sh.is_solvable_scheme(s4)
    sh.find_hall(s4, {3})
    on_fresh = len(closures)
    fresh = s4.hypergroup
    s4 = sh.from_group(sh.symmetric(4))
    sh.is_solvable_scheme(s4)
    closures.clear()
    sh.find_hall(s4, {2})
    inv = s4.hypergroup.inverse
    singles = [m for m in closures if m.bit_count() == 1]
    assert set(singles) >= {1 << s for s in range(1, 24) if inv[s] >= s}
    for pi in ({3}, {2, 3}, set()):
        closures.clear()
        sh.find_hall(s4, pi)
        assert not any(m.bit_count() == 1 for m in closures), pi
        assert len(closures) < on_fresh if pi == {3} else closures == []
    factors = [hg._residue[0] for hg in (fresh, s4.hypergroup)]
    assert picks == [fresh, s4.hypergroup]
    assert [f._gens for f in factors] == [fresh._gens, s4.hypergroup._gens]


def test_keep_walk_is_the_filtered_full_walk():
    """The closed subset walk with a keep that holds on every closed
    subset of a mask it holds on: the full walk filtered by keep, in
    the same order, on a fresh hypergroup, which it leaves with no
    lattice cached."""
    rng = random.Random(7)
    for hg in kernel_pool():
        full = sh.enumerate_closed_subsets(hg)
        allowed = rng.randrange(1 << hg.size) | 1
        largest = rng.randrange(1, hg.size + 1)
        keeps = (
            lambda m: m == 1,
            lambda m: m & ~allowed == 0,
            lambda m: m.bit_count() <= largest,
            lambda m: m & ~allowed == 0 and m.bit_count() <= largest,
            lambda m: False,
        )
        for keep in keeps:
            want = [c.bits for c in full if keep(c.bits)]
            cold = fresh(hg)
            assert [c.bits for c in _enumerate_closed(cold, keep)] == want
            assert cold._closed is None


def test_walk_from_bottom_is_the_filtered_full_walk():
    """The walk from a closed bottom lists the closed subsets that
    contain it, filtered by keep, in the full walk's order; a keep that
    refuses bottom leaves nothing.  A leaf that no kept subset lies
    strictly above, here a mask of the largest size keep accepts,
    changes nothing, and a bottom that is a leaf is returned alone with
    no attribute built.  Seeded keeps over three closed subsets of each
    pool hypergroup, on fresh hypergroups left with no lattice cached."""
    rng = random.Random(11)
    bottoms = 0
    for hg in kernel_pool():
        full = [c.bits for c in sh.enumerate_closed_subsets(hg)]
        allowed = rng.randrange(1 << hg.size) | 1
        largest = rng.randrange(1, hg.size + 1)
        at_largest = lambda m: m.bit_count() == largest
        walks = (
            (None, None),
            (lambda m: m & ~allowed == 0, None),
            (lambda m: m & ~allowed == 0 and m.bit_count() <= largest, None),
            (lambda m: m & ~allowed == 0 and m.bit_count() <= largest, at_largest),
            (lambda m: m.bit_count() <= largest, at_largest),
        )
        for bottom in {full[0], full[-1], rng.choice(full)}:
            bottoms += bottom != 1
            for keep, leaf in walks:
                want = [m for m in full if not bottom & ~m and (keep is None or keep(m))]
                cold = fresh(hg)
                assert [c.bits for c in _enumerate_closed(cold, keep, bottom, leaf)] == want
                assert cold._closed is None
            size = bottom.bit_count()
            cold = fresh(hg)
            walk = _enumerate_closed(
                cold, lambda m: m.bit_count() <= size, bottom, lambda m: m.bit_count() == size
            )
            assert [c.bits for c in walk] == [bottom]
            assert cold._attrs is None and cold._closed is None
    assert bottoms > len(kernel_pool())


def closed_pi_keep(scheme, pi):
    """all_hall_subsets' keep: a mask of pi-valenced relations whose
    valency is a pi-number."""
    ps = frozenset(pi)
    valenced = _pi_facts(scheme, ps).valenced
    return lambda m: not m & ~valenced and sh.is_pi_number(scheme.hypergroup.valency_of_mask(m), ps)


def test_close_by_one_matches_cyclic_extension():
    """The Close-by-One walk equals the cyclic-extension walk it
    replaced (oracles.py), mask for mask and in order, full and with
    seeded keeps, on every pool hypergroup.  On the residue corpus it
    does so full and with the closed pi-subset keep of all_hall_subsets
    for each nonempty pi over the primes of n, 612 walks.  Past order
    12, on the thin schemes of S4 x C2 (48 points) and D8 x C4 (64
    points), it does so full and with that keep for pi = {2} and {3}."""
    def same(hg, keep):
        got = [c.bits for c in _enumerate_closed(fresh(hg), keep)]
        assert got == [c.bits for c in closed_subsets_cyclic_extension(fresh(hg), keep)]
        return got

    rng = random.Random(21)
    for hg in kernel_pool():
        same(hg, None)
        for _ in range(3):
            allowed = rng.randrange(1 << hg.size) | 1
            largest = rng.randrange(1, hg.size + 1)
            same(hg, lambda m: m & ~allowed == 0)
            same(hg, lambda m: m.bit_count() <= largest)
            same(hg, lambda m: m & ~allowed == 0 and m.bit_count() <= largest)
    walks = 0
    for scheme in residue_corpus():
        same(scheme.hypergroup, None)
        primes = sh.prime_factors(scheme.n_points)
        for k in range(1, len(primes) + 1):
            for pi in itertools.combinations(primes, k):
                same(scheme.hypergroup, closed_pi_keep(scheme, pi))
        walks += 2 ** len(primes)
    assert walks == 612
    for table, count in (
        (sh.direct_product(sh.symmetric(4), sh.cyclic(2)), 98),
        (sh.direct_product(sh.dihedral(8), sh.cyclic(4)), 125),
    ):
        scheme = sh.from_group(table)
        assert len(same(scheme.hypergroup, None)) == count
        for pi in ({2}, {3}):
            kept = same(scheme.hypergroup, closed_pi_keep(scheme, pi))
            assert kept
            assert max(map(scheme.hypergroup.valency_of_mask, kept)) == sh.pi_part(len(table), pi)


def test_hall_check_walks_only_above_the_core(monkeypatch):
    """find_hall(S, {2}) on fresh thin schemes whose residue series is
    built first: its check walks the closed 2-subsets that contain the
    2-core, valency 16, 16 and 4, up to the Hall valency 32, 32 and 8,
    and makes 90, 99 and 27 closure_mask calls on S4 x C4, D12 x C4 and
    S4 (96, 96 and 24 points), singleton closures of the attributes
    included.  Extending the Hall subsets too made 93, 102 and 30, and
    walking every closed 2-subset 865, 1,386 and 75.  On D11 the walk
    starts at the 2-core {0} and stops at valency 2: 16 closures, where
    extending the Hall subsets made 71.  On C12 the 2-core C4 has the
    Hall valency 4, so it is the whole family: no closure, and no
    attribute built, where the walk from it made 7."""
    closures = []
    original_closure = Hypergroup.closure_mask

    def counted_closure(self, mask, stop=0):
        if self is hg:
            closures.append(mask)
        return original_closure(self, mask, stop)

    monkeypatch.setattr(Hypergroup, "closure_mask", counted_closure)
    hg = None
    made = []
    for table in (
        sh.direct_product(sh.symmetric(4), sh.cyclic(4)),
        sh.direct_product(sh.dihedral(12), sh.cyclic(4)),
        sh.symmetric(4),
        sh.dihedral(11),
        sh.cyclic(12),
    ):
        s = sh.from_group(table)
        assert sh.is_solvable_scheme(s)
        hg = s.hypergroup
        closures.clear()
        cert = sh.find_hall(s, {2})
        assert hg._closed is None
        made.append((cert.o_pi.valency, cert.hall.valency, len(closures)))
    assert made == [(16, 32, 90), (16, 32, 99), (4, 8, 27), (1, 2, 16), (4, 4, 0)]
    assert hg._attrs is None


def test_residue_series_checks_only_the_moduli_closed(monkeypatch):
    """The residue series quotients by each residue without checking it
    or the set above it closed, as each is the whole set or a closure:
    on a fresh thin S4, and on the fresh wreath product of an order-4
    and an order-6 scheme (24 points), whose series has four factors,
    is_closed_mask is never called, neither on a modulus nor on the
    whole set's n^2 cells."""
    calls = []
    original = Hypergroup.is_closed_mask

    def counted(self, mask):
        if self is hg:
            calls.append(mask)
        return original(self, mask)

    monkeypatch.setattr(Hypergroup, "is_closed_mask", counted)
    hg = None
    s = sh.from_group(sh.symmetric(4))
    hg = s.hypergroup
    assert sh.is_solvable_scheme(s)
    assert calls == [] and len(hg._residue) == 1
    s = next(s for s in residue_corpus() if s.name.startswith("wreath 4:1"))
    s = sh.validate_scheme(s.rel, name=s.name)
    hg = s.hypergroup
    calls.clear()
    assert sh.is_solvable_scheme(s)
    assert len(hg._residue) == 4
    assert calls == []
    assert hg.is_closed_mask(1) and calls == [1]  # the count sees a call


def test_keep_walk_sums_each_valency_once(monkeypatch):
    """all_hall_subsets on a fresh S4 with pi = {2} walks the closed
    2-subsets alone: keep is asked only about masks the walk has not
    found, and the valency keep sums is the one the kept subset carries,
    so no mask's valency is summed twice."""
    calls = []
    original = sh.Hypergroup.valency_of_mask

    def counted(self, mask):
        calls.append(mask)
        return original(self, mask)

    s4 = sh.from_group(sh.symmetric(4))
    monkeypatch.setattr(sh.Hypergroup, "valency_of_mask", counted)
    halls = sh.all_hall_subsets(s4, {2})
    monkeypatch.undo()
    assert [t.valency for t in halls] == [8, 8, 8]
    assert s4.hypergroup._closed is None
    kept = {c.bits for c in s4.closed_subsets() if c.valency & (c.valency - 1) == 0}
    assert len(kept) == 20 and kept <= set(calls)
    assert len(calls) == len(set(calls))


def test_hall_context_checks_strong_normality_once(monkeypatch):
    """Building the {2} context of a warm S4 scheme: the Hall build checks
    that the core is strongly normal, and the quotient side is checked
    by thinness alone, so one is_strongly_normal call in all.  It
    conjugates the core by the generating set and its stars alone, not
    by all 24 relations.  The conjugacy certificate makes no search on
    the residue quotient G: the orbit that built the Hall subgroups of G
    kept a conjugator of each."""
    calls = []
    original = sh.is_strongly_normal
    original_conjugates = _conjugates
    withins = []

    def counted(f, g):
        calls.append(f.bits)
        return original(f, g)

    def counted_conjugates(hg, mask, within):
        withins.append((hg, within))
        return original_conjugates(hg, mask, within)

    s4 = sh.from_group(sh.symmetric(4))
    assert sh.is_solvable_scheme(s4)
    # every module that binds the name (the package exports functions
    # named like some of its modules, so look them up in sys.modules)
    for name, module in list(sys.modules.items()):
        if name.startswith("schemehall.") and hasattr(module, "is_strongly_normal"):
            monkeypatch.setattr(module, "is_strongly_normal", counted)
    cert = sh.find_hall(s4, {2})
    assert cert.hall.valency == 8 and cert.o_pi.valency == 4
    assert len(calls) == 1
    s4 = sh.from_group(sh.symmetric(4))
    assert sh.is_solvable_scheme(s4)
    monkeypatch.setattr(sys.modules["schemehall.hypergroup"], "_conjugates", counted_conjugates)
    sh.find_hall(s4, {2})
    hg = s4.hypergroup
    on_hg = [within for h, within in withins if h is hg]
    gens = _generators(hg, hg.full_mask)
    assert on_hg[0] == gens | hg.star_mask(gens) and hg.full_mask not in on_hg
    assert on_hg[0].bit_count() < 24
    assert [within for h, within in withins if h is not hg] == []


# --- scheme ingest -----------------------------------------------------------
#
# The passes validate_scheme used to make, written out: a double loop
# for the identity relation, a double loop pairing each relation with
# its partner, a fresh count table for every point pair, and the
# product table read off the tensor one (p, q, r) triple at a time.


def ingest_oracle(matrix):
    """(rel, star, tensor, valencies, product table) or the first error."""
    n = len(matrix)
    rel = [tuple(row) for row in matrix]
    labels = {v for row in rel for v in row}
    rank = max(labels) + 1
    assert labels == set(range(rank))
    for x in range(n):
        if rel[x][x] != 0:
            raise sh.IdentityViolationError(x, x, f"diagonal entry ({x}, {x}) is not 0")
        for y in range(n):
            if x != y and rel[x][y] == 0:
                raise sh.IdentityViolationError(x, y)
    star = [-1] * rank
    for x in range(n):
        for y in range(n):
            s, t = rel[x][y], rel[y][x]
            if star[s] == -1:
                star[s] = t
            elif star[s] != t:
                raise sh.StarViolationError(
                    f"relation {s} pairs with both {star[s]} and {t}, seen at ({x}, {y})"
                )
    for s in range(rank):
        if star[star[s]] != s:
            raise sh.StarViolationError(f"star map is not an involution at {s}")
    tensor = [None] * rank
    for y in range(n):
        for z in range(n):
            r = rel[y][z]
            counts = [[0] * rank for _ in range(rank)]
            for x in range(n):
                counts[rel[y][x]][rel[x][z]] += 1
            if tensor[r] is None:
                tensor[r] = counts
            elif tensor[r] != counts:
                for p in range(rank):
                    for q in range(rank):
                        if tensor[r][p][q] != counts[p][q]:
                            raise sh.RegularityViolationError(p, q, r, y, z)
    valencies = tuple(tensor[0][s][star[s]] for s in range(rank))
    products = tuple(
        tuple(
            sum(1 << r for r in range(rank) if tensor[r][p][q])
            for q in range(rank)
        )
        for p in range(rank)
    )
    tensor = tuple(tuple(tuple(row) for row in t) for t in tensor)
    return tuple(rel), tuple(star), tensor, valencies, products


def ingest_outcome(validate, matrix):
    try:
        out = validate(matrix)
    except sh.SchemeAxiomError as exc:
        return type(exc), str(exc)
    if isinstance(out, sh.AssociationScheme):
        numbers = tuple(out.intersection_numbers(r) for r in range(out.rank))
        return out.rel, out.star_map, numbers, out.valencies, out.hypergroup.table
    return out


@functools.cache
def ingest_pool():
    """Relation matrices of every catalogue scheme (the order-28 bundle
    included), every named scheme and the thin scheme of every bundled
    group, one per distinct matrix."""
    mats = [sf.matrix for order in sh.bundled_orders() for sf in sh.bundled_catalogue(order)]
    mats += [sh.bundled_scheme(name).matrix for name in sh.bundled_scheme_names()]
    mats += [sh.from_group(sh.bundled_group(name).table).rel for name in sh.bundled_group_names()]
    return tuple(dict.fromkeys(tuple(map(tuple, m)) for m in mats))


def test_validate_scheme_matches_pairwise_loops():
    pool = ingest_pool()
    assert len(pool) >= 136 + 38 - 20
    assert {len(m) for m in pool} >= {1, 12, 24, 28}
    for m in pool:
        assert ingest_outcome(sh.validate_scheme, m) == ingest_outcome(ingest_oracle, m)


def test_validate_scheme_matches_pairwise_loops_on_products():
    """Wreath and tensor products past the bundled orders, up to 96 points."""
    sizes = set()
    for name, m in product_matrices():
        assert ingest_outcome(sh.validate_scheme, m) == ingest_outcome(ingest_oracle, m), name
        sizes.add(len(m))
    assert min(sizes) < 16 and max(sizes) == 96


def _single_cell(rng, m):
    n = len(m)
    out = [list(row) for row in m]
    rank = max(map(max, m)) + 1
    a, b = rng.randrange(n), rng.randrange(n)
    out[a][b] = rng.choice([v for v in range(rank) if v != m[a][b]])
    return out


def _symmetric_pair(rng, m):
    """rel[a][b] and rel[b][a] moved together to a relation and its
    partner, so the star pass still holds and regularity is reached."""
    n = len(m)
    star = {m[x][y]: m[y][x] for x in range(n) for y in range(n)}
    out = [list(row) for row in m]
    a = rng.randrange(n)
    b = rng.choice([y for y in range(n) if y != a])
    choices = [v for v in range(1, len(star)) if v != m[a][b]]
    if not choices:
        return None
    s = rng.choice(choices)
    out[a][b], out[b][a] = s, star[s]
    return out


def test_validate_scheme_corruptions_name_the_oracle_witness():
    rng = random.Random(7)
    reached = {}
    for m in ingest_pool():
        if len(m) < 3:
            continue
        for corrupt in (_single_cell, _symmetric_pair) * 4:
            bad = corrupt(rng, m)
            if bad is None or len({v for row in bad for v in row}) != max(map(max, bad)) + 1:
                continue  # no other relation, or a label vanished (a partition error)
            want = ingest_outcome(ingest_oracle, bad)
            assert ingest_outcome(sh.validate_scheme, bad) == want
            kind = want[0] if isinstance(want[0], type) else None
            reached[kind] = reached.get(kind, 0) + 1
    assert reached.get(sh.IdentityViolationError, 0) >= 10
    assert reached.get(sh.StarViolationError, 0) >= 10
    assert reached.get(sh.RegularityViolationError, 0) >= 10


def test_corruptions_witnessed_below_the_diagonal_name_the_oracle_witness():
    """validate_scheme keys only the pairs (y, z) with z = 0 or z >= y
    and reruns every pair once a key differs, so a symmetric-pair
    corruption that keeps the star pass and whose row-major witness
    lies below the diagonal raises the oracle's exact error: seeded
    corruptions of the ingest pool, whose witnesses lie in column 0,
    and S3's thin scheme with (4, 5) and (5, 4) moved to relation 1,
    whose witness (2, 1) no upper-triangle key covers."""
    s3 = [list(row) for row in sh.from_group(sh.bundled_group("s3").table).rel]
    s3[4][5] = s3[5][4] = 1  # relation 1 is its own partner
    want = (
        sh.RegularityViolationError,
        "intersection number for (5, 1) over relation 4 is not constant; "
        "first deviation at point pair (2, 1)",
    )
    assert ingest_outcome(ingest_oracle, s3) == want
    assert ingest_outcome(sh.validate_scheme, s3) == want
    rng = random.Random(22)
    below = 0
    for m in ingest_pool():
        if len(m) < 3:
            continue
        for _ in range(4):
            bad = _symmetric_pair(rng, m)
            if bad is None or len({v for row in bad for v in row}) != max(map(max, bad)) + 1:
                continue
            try:
                ingest_oracle(bad)
            except sh.RegularityViolationError as exc:
                y, z = exc.witness[3:]
                if z < y:
                    assert ingest_outcome(sh.validate_scheme, bad) == (type(exc), str(exc))
                    below += 1
            except sh.SchemeAxiomError:
                pass
    assert below >= 10


def steiner_loop_10():
    """rel[x][y] = x y in the Steiner loop of order 10: 0 is the identity,
    1..9 are the points 3i + j + 1 of the affine plane over Z3, x x = 0,
    and x y is the third point of the line through x and y, the one
    with all three points summing to 0.  Every row is a permutation and
    the star pass holds (x^-1 = x), but the loop is not associative, so
    the matrix is not regular."""
    def mul(x, y):
        if 0 in (x, y):
            return x + y
        if x == y:
            return 0
        (a, b), (c, d) = divmod(x - 1, 3), divmod(y - 1, 3)
        return 3 * (-a - c) % 9 + (-b - d) % 3 + 1
    return [[mul(x, y) for y in range(10)] for x in range(10)]


def test_thin_keys_name_the_oracle_witness():
    """The Steiner loop reaches the permutation-keyed pass, whose keys
    differ: the same witness as the pairwise loops, on the loop and on
    seeded relabellings of its points, which keep every row a
    permutation."""
    m = steiner_loop_10()
    assert all(sorted(row) == list(range(10)) for row in m)
    want = (
        sh.RegularityViolationError,
        "intersection number for (4, 6) over relation 3 is not constant; "
        "first deviation at point pair (1, 2)",
    )
    assert ingest_outcome(ingest_oracle, m) == want
    assert ingest_outcome(sh.validate_scheme, m) == want
    rng = random.Random(10)
    witnesses = set()
    for _ in range(8):
        perm = [0, *rng.sample(range(1, 10), 9)]
        bad = [[0] * 10 for _ in range(10)]
        for x in range(10):
            for y in range(10):
                bad[perm[x]][perm[y]] = perm[m[x][y]]
        want = ingest_outcome(ingest_oracle, bad)
        assert want[0] is sh.RegularityViolationError
        assert ingest_outcome(sh.validate_scheme, bad) == want
        witnesses.add(want[1])
    assert len(witnesses) > 1


def _relabelled(m, rng):
    """(matrix, lab): m with its points renamed at random and each label
    s renamed lab[s], 0 kept: the same scheme, or the same failure, with
    row 0 no longer read off row 0 of m."""
    n = len(m)
    rank = max(map(max, m)) + 1
    pts = rng.sample(range(n), n)
    lab = [0, *rng.sample(range(1, rank), rank - 1)]
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[pts[x]][pts[y]] = lab[m[x][y]]
    return out, lab


def _carried(outcome, lab):
    """An ingest outcome, past its rel, with each label s renamed lab[s]."""
    _, star, numbers, valencies, table = outcome
    k = len(lab)
    old = [0] * k
    for s, new in enumerate(lab):
        old[new] = s
    return (
        tuple(lab[star[s]] for s in old),
        tuple(tuple(tuple(numbers[r][p][q] for q in old) for p in old) for r in old),
        tuple(valencies[s] for s in old),
        tuple(tuple(sum(1 << lab[s] for s in _members(table[p][q])) for q in old) for p in old),
    )


def test_relabelled_thin_inputs_match_the_oracle():
    """Valid thin inputs whose row 0 is not 0, 1, ..., n - 1, which no
    catalogue or from_group matrix has: two seeded point-and-label
    relabellings of the thin scheme of each bundled group match the
    pairwise loops, and one of S4 x C4 and of D12 x C4 (96 points)
    matches from_group's scheme with its labels carried along.  Their
    symmetric-pair corruptions name the pairwise loops' witness."""
    rng = random.Random(31)
    valid = []
    for name in sh.bundled_group_names():
        m = sh.from_group(sh.bundled_group(name).table).rel
        for _ in range(2 if len(m) > 2 else 0):  # C2's row 0 cannot move
            got = m
            while list(got[0]) == list(range(len(m))):
                got = _relabelled(m, rng)[0]
            assert ingest_outcome(sh.validate_scheme, got) == ingest_outcome(ingest_oracle, got)
            valid.append(got)
    assert len(valid) >= 70
    for table in (
        sh.direct_product(sh.symmetric(4), sh.cyclic(4)),
        sh.direct_product(sh.dihedral(12), sh.cyclic(4)),
    ):
        scheme = sh.from_group(table)
        m, lab = _relabelled(scheme.rel, rng)
        assert list(m[0]) != list(range(96))
        got = ingest_outcome(sh.validate_scheme, m)
        assert got[0] == tuple(map(tuple, m))
        assert got[1:] == _carried(ingest_outcome(lambda _: scheme, None), lab)
        valid.append(m)
    reached = 0
    for m in valid:
        if len(m) < 3:
            continue
        bad = _symmetric_pair(rng, m)
        want = ingest_outcome(ingest_oracle, bad)
        assert ingest_outcome(sh.validate_scheme, bad) == want
        reached += want[0] is sh.RegularityViolationError
    assert reached >= 60


def test_valid_thin_input_makes_no_pair_pass(monkeypatch):
    """A valid thin input is proved by validate_group alone, with no
    n**3 pass: no _pair_keys, sorted or _count_table call, on S4's
    scheme, the thin product matrices and a seeded relabelling of each.
    A non-thin valid input sorts a key per pair (y, z) with z = 0 or
    z >= y: 5 * 6 / 2 + 4 on the pentagon."""
    from schemehall import scheme as scheme_mod

    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(scheme_mod, "sorted", counting("sorted", sorted), raising=False)
    for name in ("_pair_keys", "_count_table"):
        monkeypatch.setattr(scheme_mod, name, counting(name, getattr(scheme_mod, name)))
    thin = [sh.from_group(sh.symmetric(4)).rel]
    thin += [m for _, m in product_matrices() if max(map(max, m)) + 1 == len(m)]
    rng = random.Random(3)
    thin += [_relabelled(m, rng)[0] for m in thin]
    assert len(thin) >= 6 and max(map(len, thin)) == 96
    calls.clear()
    for m in thin:
        assert sh.validate_scheme(m).rel == tuple(map(tuple, m))
    assert calls == []
    sh.validate_scheme(sh.bundled_scheme("pentagon").matrix)
    assert calls == ["_pair_keys"] + ["sorted"] * (5 * 6 // 2 + 4)


def test_identity_witness_is_the_first_zero_off_the_diagonal():
    """A row whose only 0 is off the diagonal, and one with a second 0
    after its diagonal: row.index(0) would name x itself in the second."""
    pent = sh.bundled_scheme("pentagon").matrix
    bad = [list(row) for row in pent]
    bad[2][2], bad[2][4] = 1, 0
    assert ingest_outcome(sh.validate_scheme, bad) == ingest_outcome(ingest_oracle, bad)
    assert "diagonal entry (2, 2)" in ingest_outcome(sh.validate_scheme, bad)[1]
    bad = [list(row) for row in pent]
    bad[1][3] = 0
    got = ingest_outcome(sh.validate_scheme, bad)
    assert got == ingest_outcome(ingest_oracle, bad)
    assert got == (sh.IdentityViolationError, "identity relation misplaced at (1, 3)")


def test_conjugation_matches_two_products_on_the_residue_corpus():
    """conjugate_subset, conjugators and is_strongly_normal, all read off
    one conjugation kernel, against s^ T s as two mul_masks products, on
    every closed subset T of the 187 residue-corpus schemes.  conjugators
    is asked for T itself, for every closed conjugate of T and for the
    full set; strong normality for every closed G holding T."""
    subsets = 0
    for scheme in residue_corpus():
        hg = scheme.hypergroup
        closed = scheme.closed_subsets()
        by_bits = {c.bits: c for c in closed}
        for t in closed:
            conj = [conjugate_mul_masks(scheme, t, s) for s in range(scheme.rank)]
            for s, want in enumerate(conj):
                got = sh.conjugate_subset(scheme, t, s)
                assert got.parent is hg and got.bits == want.bits, (scheme.name, t, s)
            targets = {t.bits, hg.full_mask} | {c.bits for c in conj if c.bits in by_bits}
            for u in targets:
                want = tuple(s for s, c in enumerate(conj) if c.bits == u)
                assert sh.conjugators(scheme, t, by_bits[u]) == want, (scheme.name, t, u)
            for g in closed:
                if t.issubset(g):
                    want = all(conj[h].issubset(t) for h in g.members())
                    assert sh.is_strongly_normal(t, g) == want, (scheme.name, t, g)
            subsets += 1
    assert subsets == 1146


def test_normality_matches_pairwise_products_and_chain_search(hypergroups8):
    """normalizes and is_normal_in on every ordered pair of closed subsets
    of the kernel pool and on random subsets, against two mul_masks
    products per element; and is_subnormal on every closed pair F inside
    G and on random subsets F below the full set, of the order <= 8
    corpus, against a breadth-first chain search built on those
    products."""
    rng = random.Random(14)
    normal = set()
    for hg in kernel_pool():
        subs = sh.enumerate_closed_subsets(hg)
        loose = [hg.subset(m) for m in random_masks(rng, hg, 6)]
        for d in (*subs, *loose):
            for e in (*subs, *loose):
                want = normalizes_mul_masks(d, e)
                assert sh.normalizes(d, e) == want, (hg.name, d, e)
                assert sh.is_normal_in(e, d) == (e.issubset(d) and want), (hg.name, e, d)
                normal.add((want, d.is_closed() and e.is_closed()))
    assert normal == {(True, True), (False, True), (True, False), (False, False)}
    outcomes = set()
    for hg in hypergroups8:
        subs = sh.enumerate_closed_subsets(hg)
        pairs = [(f, g) for f in subs for g in subs if f.issubset(g)]
        pairs += [(hg.subset(m), hg.universe()) for m in random_masks(rng, hg, 4)]
        for f, g in pairs:
            got = sh.is_subnormal(f, g)
            assert got == subnormal_chain_search(f, g), (hg.name, f, g)
            outcomes.add((got, f.bits == g.bits, f.is_closed()))
    assert outcomes >= {(True, False, True), (False, False, True), (False, False, False)}


def test_validate_scheme_builds_one_count_table_per_relation(monkeypatch):
    """A valid scheme builds no Python count table at all: the
    regularity pass compares pair keys of sorted pair codes, and a thin
    input such as S4's is proved a group's scheme by validate_group.  A
    failure builds two, the first pair's of its relation and its own,
    to name the witness."""
    from schemehall import scheme as scheme_mod

    calls = []
    original = scheme_mod._count_table

    def counted(rel, y, z, rank):
        calls.append((y, z))
        return original(rel, y, z, rank)

    monkeypatch.setattr(scheme_mod, "_count_table", counted)
    for m in (sh.bundled_scheme("pentagon").matrix, sh.from_group(sh.symmetric(4)).rel):
        calls.clear()
        sh.validate_scheme(m)
        assert len(calls) == 0
    bad = [list(row) for row in sh.from_group(sh.symmetric(4)).rel]
    bad[1][2], bad[2][1] = bad[1][3], bad[3][1]
    calls.clear()
    with pytest.raises(sh.RegularityViolationError):
        sh.validate_scheme(bad)
    assert 0 < len(calls) <= 2
