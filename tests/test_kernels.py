"""The bitmask kernels against the plain loops they replaced.

The oracles below are the product, closure, closedness, enumeration
and associativity loops written out the slow way, copied here so the
comparison never runs the code under test: a double loop for products,
the fixpoint cur -> cur | cur^ | cur*cur for closure, the definition
A^A inside A for closedness, the worklist of singleton-closure joins
for enumeration, and the triple loops over (p, q, r) for H1 and over
(a, b, c) for group associativity.  They run over every corpus
hypergroup, the thin hypergroups of all bundled groups (order <= 24)
and the hypergroups of the order-28 catalogue schemes.

The operation-count guards at the end count calls, not time.
"""
from __future__ import annotations

import functools
import itertools
import random

import pytest

import schemehall as sh
from schemehall.groups import _associativity_witness
from schemehall.hypergroup import Hypergroup, _h1_witness

from conftest import corpus_hypergroups


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
            assert hg.is_closed_mask(mask) == is_closed_oracle(hg, mask), (hg.name, mask)


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
    rng = random.Random(5)
    tables = [sh.bundled_group(n).table for n in sh.bundled_group_names()]
    for t in tables:
        assert _associativity_witness(t) is None
        n = len(t)
        if n == 1:
            continue
        for _ in range(8):
            bad = _corrupt_cell(rng, t, lambda rng, old: rng.randrange(n))
            bad = tuple(tuple(row) for row in bad)
            assert _associativity_witness(bad) == group_assoc_oracle(bad), n


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


# --- operation-count guards -------------------------------------------------


@pytest.fixture
def counted_products(monkeypatch):
    """Left operands of every Hypergroup.mul_masks call, in order."""
    lefts = []
    original = Hypergroup.mul_masks

    def counted(self, left, right):
        lefts.append(left)
        return original(self, left, right)

    monkeypatch.setattr(Hypergroup, "mul_masks", counted)
    return lefts


def test_closure_multiplies_each_element_once(counted_products):
    """Semi-naive closure on S4: at most |closure| + 1 products, and the
    left operands (the frontiers) are disjoint, so their sizes add up to
    at most |closure|.  The fixpoint cur -> cur * cur breaks the second
    bound on every singleton of order above 2."""
    hg = sh.thin_hypergroup(sh.symmetric(4))
    rng = random.Random(6)
    for mask in [1 << s for s in range(24)] + random_masks(rng, hg, 30) + [hg.full_mask]:
        counted_products.clear()
        got = hg.closure_mask(mask)
        assert len(counted_products) <= got.bit_count() + 1, mask
        assert sum(m.bit_count() for m in counted_products) <= got.bit_count(), mask


def test_enumeration_closes_less_often(monkeypatch):
    """Closed subsets of S4 (30 of them): the worklist over singleton
    joins made 416 closure_mask calls; cyclic extension, with one
    closure per inverse pair and known unions taken as joins, makes
    389."""
    calls = []
    original = Hypergroup.closure_mask

    def counted(self, mask):
        calls.append(mask)
        return original(self, mask)

    monkeypatch.setattr(Hypergroup, "closure_mask", counted)
    hg = sh.thin_hypergroup(sh.symmetric(4))
    assert len(sh.enumerate_closed_subsets(hg)) == 30
    assert len(calls) < 416
