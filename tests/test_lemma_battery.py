"""Exhaustive law battery over the bundled corpus.

Every test here sweeps a law over ALL quantifier instances for every
hypergroup in its corpus tier (order <= 8 for the element/subset laws,
order <= 10 for quotient and solvability laws, every bundled scheme
for the valency laws).  Assertions carry a stable law name and the
first failing witness in iteration order, so a red test pinpoints both
the broken law and a minimal counterexample.

Subset-quantified laws use a per-hypergroup product table P where
P[A][B] is the complex product of the masks A and B, built once by
dynamic programming; this keeps full 4^n sweeps affordable at n = 8.
"""

from functools import cache

import pytest

import schemehall as sh
from schemehall.hypergroup import bits_of


@cache
def _tables(hg):
    """(P, S): P[A][B] = mask product, S[A] = mask of inverses."""
    n = hg.size
    full = 1 << n
    rows = []
    for a in range(n):
        ta = hg.table[a]
        ra = [0] * full
        for b_mask in range(1, full):
            low = b_mask & -b_mask
            ra[b_mask] = ra[b_mask ^ low] | ta[low.bit_length() - 1]
        rows.append(ra)
    p = [[0] * full for _ in range(full)]
    for a_mask in range(1, full):
        low = a_mask & -a_mask
        prev = p[a_mask ^ low]
        ra = rows[low.bit_length() - 1]
        p[a_mask] = [x | y for x, y in zip(prev, ra)]
    s = [0] * full
    for a_mask in range(1, full):
        low = a_mask & -a_mask
        s[a_mask] = s[a_mask ^ low] | (1 << hg.inverse[low.bit_length() - 1])
    return p, s


@cache
def _closed_masks(hg):
    return tuple(cs.bits for cs in sh.enumerate_closed_subsets(hg))


def _sub(hg, mask):
    return hg.subset(mask)


# ---------------------------------------------------------- element laws, n<=8

def test_neutral_membership_law(hypergroups8):
    """1 lies in a*b exactly when a equals b."""
    for hg in hypergroups8:
        for a in range(hg.size):
            arow = hg.table[hg.inverse[a]]
            for b in range(hg.size):
                assert ((arow[b] & 1) != 0) == (a == b), (
                    f"neutral-membership law: {hg.name}: a={a} b={b}"
                )


def test_triple_membership_equivalence(hypergroups8):
    """The six memberships tied to c in ab hold or fail together."""
    for hg in hypergroups8:
        t, inv = hg.table, hg.inverse
        for a in range(hg.size):
            for b in range(hg.size):
                for c in range(hg.size):
                    forms = (
                        t[a][b] >> c,
                        t[inv[a]][c] >> b,
                        t[b][inv[c]] >> inv[a],
                        t[inv[b]][inv[a]] >> inv[c],
                        t[inv[c]][a] >> inv[b],
                        t[c][inv[b]] >> a,
                    )
                    bits = {f & 1 for f in forms}
                    assert len(bits) == 1, (
                        f"triple-membership equivalence: {hg.name}: "
                        f"(a,b,c)=({a},{b},{c}) memberships {[f & 1 for f in forms]}"
                    )


def test_thin_factor_singleton_law(hypergroups8):
    """Multiplying by a thin element on the right never fans out."""
    for hg in hypergroups8:
        for b in range(hg.size):
            if hg.table[hg.inverse[b]][b] != 1:
                continue
            for a in range(hg.size):
                prod = hg.table[a][b]
                assert prod.bit_count() == 1, (
                    f"thin-factor singleton law: {hg.name}: a={a} thin b={b} "
                    f"product mask {prod:#x}"
                )


def test_star_monotonicity(hypergroups8):
    """A inside B forces A* inside B*."""
    for hg in hypergroups8:
        _, s = _tables(hg)
        for b_mask in range(1 << hg.size):
            sb = s[b_mask]
            a_mask = b_mask
            while a_mask:
                assert s[a_mask] & ~sb == 0, (
                    f"star monotonicity: {hg.name}: A={a_mask:#x} B={b_mask:#x}"
                )
                a_mask = (a_mask - 1) & b_mask


def test_star_reverses_products(hypergroups8):
    """(AB)* equals B*A* for every pair of subsets."""
    for hg in hypergroups8:
        p, s = _tables(hg)
        full = 1 << hg.size
        for a_mask in range(full):
            pa = p[a_mask]
            sa = s[a_mask]
            for b_mask in range(full):
                assert s[pa[b_mask]] == p[s[b_mask]][sa], (
                    f"star antihomomorphism law: {hg.name}: "
                    f"A={a_mask:#x} B={b_mask:#x}"
                )


def test_closed_intersection_law(hypergroups8):
    """Intersections of non-empty families of closed subsets are closed.

    Any family intersection is reachable by iterated pairwise meets,
    so closing the set of closed masks under pairwise AND covers every
    family."""
    for hg in hypergroups8:
        masks = set(_closed_masks(hg))
        frontier = set(masks)
        while frontier:
            nxt = set()
            for m in frontier:
                for k in masks:
                    meet = m & k
                    if meet not in masks:
                        nxt.add(meet)
            masks |= nxt
            frontier = nxt
        for m in masks:
            assert m and hg.is_closed_mask(m), (
                f"closed-intersection law: {hg.name}: meet {m:#x} not closed"
            )


def test_closed_trace_modular_law(hypergroups8):
    """Products confined to a closed subset can be cut before or after:
    A(B n F) = AB n F when A lies in F, and symmetrically."""
    for hg in hypergroups8:
        p, _ = _tables(hg)
        full = 1 << hg.size
        for f_mask in _closed_masks(hg):
            a_mask = f_mask
            while True:
                pa = p[a_mask]
                for b_mask in range(full):
                    assert pa[b_mask & f_mask] == pa[b_mask] & f_mask, (
                        f"closed-trace modular law: {hg.name}: "
                        f"A={a_mask:#x} B={b_mask:#x} F={f_mask:#x}"
                    )
                    assert p[b_mask & f_mask][a_mask] == p[b_mask][a_mask] & f_mask, (
                        f"closed-trace modular law (mirrored): {hg.name}: "
                        f"A={a_mask:#x} B={b_mask:#x} F={f_mask:#x}"
                    )
                if a_mask == 0:
                    break
                a_mask = (a_mask - 1) & f_mask


def test_double_coset_partition_law(hypergroups8):
    """The sets D h E chop the hypergroup into disjoint pieces."""
    for hg in hypergroups8:
        p, _ = _tables(hg)
        for d_mask in _closed_masks(hg):
            for e_mask in _closed_masks(hg):
                cosets = {p[p[d_mask][1 << h]][e_mask] for h in range(hg.size)}
                union = 0
                for c in cosets:
                    assert union & c == 0, (
                        f"double-coset partition law: {hg.name}: "
                        f"D={d_mask:#x} E={e_mask:#x} overlapping cosets"
                    )
                    union |= c
                assert union == hg.full_mask, (
                    f"double-coset partition law: {hg.name}: "
                    f"D={d_mask:#x} E={e_mask:#x} union {union:#x}"
                )


def test_double_coset_absorption_law(hypergroups8):
    """a in D b E forces D b E inside D a E."""
    for hg in hypergroups8:
        p, _ = _tables(hg)
        for d_mask in _closed_masks(hg):
            for e_mask in _closed_masks(hg):
                for b in range(hg.size):
                    dbe = p[p[d_mask][1 << b]][e_mask]
                    for a in bits_of(dbe):
                        dae = p[p[d_mask][1 << a]][e_mask]
                        assert dbe & ~dae == 0, (
                            f"double-coset absorption law: {hg.name}: "
                            f"D={d_mask:#x} E={e_mask:#x} a={a} b={b}"
                        )


def test_commuting_product_closure_law(hypergroups8):
    """DE is closed exactly when D and E commute as sets."""
    for hg in hypergroups8:
        p, _ = _tables(hg)
        closed = _closed_masks(hg)
        for d_mask in closed:
            for e_mask in closed:
                de = p[d_mask][e_mask]
                ed = p[e_mask][d_mask]
                assert hg.is_closed_mask(de) == (de == ed), (
                    f"commuting-product closure law: {hg.name}: "
                    f"D={d_mask:#x} E={e_mask:#x} DE={de:#x} ED={ed:#x}"
                )


def test_normalizer_product_laws(hypergroups8):
    """When D normalizes E: dE = Ed on D, ED is closed, E is normal in
    ED, and E n D is normal in D."""
    for hg in hypergroups8:
        p, _ = _tables(hg)
        closed = _closed_masks(hg)
        for d_mask in closed:
            d = _sub(hg, d_mask)
            for e_mask in closed:
                e = _sub(hg, e_mask)
                if not sh.normalizes(d, e):
                    continue
                ctx = f"{hg.name}: D={d_mask:#x} E={e_mask:#x}"
                for x in bits_of(d_mask):
                    assert p[e_mask][1 << x] == p[1 << x][e_mask], (
                        f"normalizer translate law: {ctx} d={x}"
                    )
                ed = p[e_mask][d_mask]
                assert hg.is_closed_mask(ed), f"normalizer product closure: {ctx}"
                assert sh.is_normal_in(e, _sub(hg, ed)), (
                    f"normalizer product normality: {ctx}"
                )
                assert sh.is_normal_in(_sub(hg, e_mask & d_mask), d), (
                    f"normalizer meet normality: {ctx}"
                )


def test_subnormal_join_law(hypergroups8):
    """A subnormal D joined with a normal E stays closed and subnormal."""
    for hg in hypergroups8:
        p, _ = _tables(hg)
        closed = _closed_masks(hg)
        universe = hg.universe()
        for e_mask in closed:
            if not sh.is_normal_in(_sub(hg, e_mask), universe):
                continue
            for d_mask in closed:
                if not sh.is_subnormal(_sub(hg, d_mask), universe):
                    continue
                ed = p[e_mask][d_mask]
                ctx = f"{hg.name}: D={d_mask:#x} E={e_mask:#x} ED={ed:#x}"
                assert hg.is_closed_mask(ed), f"subnormal join closure: {ctx}"
                assert sh.is_subnormal(_sub(hg, ed), universe), (
                    f"subnormal join law: {ctx}"
                )


def test_metathin_sandwich_law(hypergroups8):
    """In a metathin hypergroup every element satisfies h h* h = {h},
    and each h*h is a thin closed subset normal in the intersection of
    all closed subsets with thin quotient."""
    seen_metathin = 0
    for hg in hypergroups8:
        core = sh.theta_core(hg)
        if not all(hg.is_thin_element(x) for x in core.members()):
            continue
        seen_metathin += 1
        p, s = _tables(hg)
        for h in range(hg.size):
            hm = 1 << h
            ctx = f"metathin law: {hg.name}: h={h}"
            assert p[p[hm][s[hm]]][hm] == hm, f"{ctx}: sandwich is not a point"
            back = p[s[hm]][hm]
            assert hg.is_closed_mask(back), f"{ctx}: h*h not closed"
            for x in bits_of(back):
                assert hg.table[hg.inverse[x]][x] == 1, f"{ctx}: h*h not thin"
            assert sh.is_normal_in(_sub(hg, back), core), (
                f"{ctx}: h*h not normal in the thin-quotient core"
            )
    assert seen_metathin > 0  # the corpus exercises the hypothesis


# ------------------------------------------------- quotient laws, order <= 10

def test_quotient_normality_correspondence(hypergroups10):
    """Normality of E survives collapsing a closed D inside it, and
    strong normality survives in both directions."""
    for hg in hypergroups10:
        universe = hg.universe()
        closed = list(sh.enumerate_closed_subsets(hg))
        for d in closed:
            q = sh.quotient(hg, d)
            qfull = q.universe()
            for e in closed:
                if not d.issubset(e):
                    continue
                e_down = sh.project_closed(q, e)
                ctx = f"{hg.name}: D={d.bits:#x} E={e.bits:#x}"
                if sh.is_normal_in(e, universe):
                    assert sh.is_normal_in(e_down, qfull), (
                        f"quotient normality correspondence: {ctx}"
                    )
                assert sh.is_strongly_normal(e, universe) == sh.is_strongly_normal(
                    e_down, qfull
                ), f"quotient strong-normality correspondence: {ctx}"


def test_thin_quotient_criterion(hypergroups10):
    """The quotient by E is thin exactly when E is strongly normal."""
    for hg in hypergroups10:
        universe = hg.universe()
        for e in sh.enumerate_closed_subsets(hg):
            q = sh.quotient(hg, e)
            assert sh.is_thin(q) == sh.is_strongly_normal(e, universe), (
                f"thin-quotient criterion: {hg.name}: E={e.bits:#x}"
            )


def test_modulus_interval_correspondence(hypergroups10):
    """Closed subsets above the modulus biject with closed subsets of
    the quotient, by project and lift."""
    for hg in hypergroups10:
        closed = list(sh.enumerate_closed_subsets(hg))
        for d in closed:
            q = sh.quotient(hg, d)
            above = [e for e in closed if d.issubset(e)]
            below = list(sh.enumerate_closed_subsets(q))
            ctx = f"{hg.name}: D={d.bits:#x}"
            assert len(above) == len(below), f"modulus-interval size: {ctx}"
            for e in above:
                down = sh.project_closed(q, e)
                up = sh.lift_closed(q, down)
                assert up.bits == e.bits, (
                    f"modulus-interval correspondence: {ctx} E={e.bits:#x}"
                )


# ---------------------------------------------- solvability laws, order <= 10

def test_closed_subset_solvability_descent(hypergroups10):
    """Closed subsets of solvable hypergroups are solvable."""
    for hg in hypergroups10:
        if not sh.is_solvable(hg):
            continue
        for e in sh.enumerate_closed_subsets(hg):
            sub = sh.subquotient(hg, e, hg.neutral_subset())
            assert sh.is_solvable(sub), (
                f"closed-subset solvability descent: {hg.name}: E={e.bits:#x}"
            )


def test_normal_quotient_solvability_descent(hypergroups10):
    """Quotients of solvable hypergroups by normal closed subsets are
    solvable; the same holds for subnormal moduli."""
    for hg in hypergroups10:
        if not sh.is_solvable(hg):
            continue
        universe = hg.universe()
        for e in sh.enumerate_closed_subsets(hg):
            if sh.is_normal_in(e, universe):
                assert sh.is_solvable(sh.quotient(hg, e)), (
                    f"normal-quotient solvability descent: {hg.name}: E={e.bits:#x}"
                )
            if sh.is_subnormal(e, universe):
                assert sh.is_solvable(sh.quotient(hg, e)), (
                    f"subnormal-quotient solvability descent: "
                    f"{hg.name}: E={e.bits:#x}"
                )


def test_two_step_solvability_assembly(hypergroups10):
    """A solvable closed subset with solvable quotient makes the whole
    hypergroup solvable."""
    for hg in hypergroups10:
        for e in sh.enumerate_closed_subsets(hg):
            sub = sh.subquotient(hg, e, hg.neutral_subset())
            if not sh.is_solvable(sub):
                continue
            if not sh.is_solvable(sh.quotient(hg, e)):
                continue
            assert sh.is_solvable(hg), (
                f"two-step solvability assembly: {hg.name}: E={e.bits:#x}"
            )


def test_subnormality_lifting_law(hypergroups10):
    """In a solvable hypergroup, subnormality of E//D over a subnormal
    D lifts to subnormality of E."""
    for hg in hypergroups10:
        if not sh.is_solvable(hg):
            continue
        universe = hg.universe()
        closed = list(sh.enumerate_closed_subsets(hg))
        for d in closed:
            if not sh.is_subnormal(d, universe):
                continue
            q = sh.quotient(hg, d)
            qfull = q.universe()
            for e in closed:
                if not d.issubset(e):
                    continue
                e_down = sh.project_closed(q, e)
                if not sh.is_subnormal(e_down, qfull):
                    continue
                assert sh.is_subnormal(e, universe), (
                    f"subnormality lifting law: {hg.name}: "
                    f"D={d.bits:#x} E={e.bits:#x}"
                )


# ----------------------------------------------------- scheme valency laws

def test_intersection_tensor_row_sums(corpus12):
    """Summing a_pqr * n_r over r recovers n_p * n_q."""
    for scheme in corpus12:
        rank = len(scheme.valencies)
        n = scheme.valencies
        tensor = [scheme.intersection_numbers(r) for r in range(rank)]
        for p in range(rank):
            for q in range(rank):
                total = sum(tensor[r][p][q] * n[r] for r in range(rank))
                assert total == n[p] * n[q], (
                    f"tensor row-sum law: {scheme.name}: p={p} q={q} sum {total}"
                )


def test_induced_hypergroups_validate(corpus12):
    """Complex multiplication of a valid scheme is always a valid
    hypergroup; re-validate from the raw table to prove it."""
    for scheme in corpus12:
        hg = scheme.hypergroup
        again = sh.validate_hypergroup(
            [[hg.table[a][b] for b in hg.elements] for a in hg.elements]
        )
        assert again.table == hg.table, f"induced hypergroup: {scheme.name}"


def test_pi_valency_transfer_to_quotients(corpus12):
    """Collapsing a closed subset whose valency is a pi-number keeps
    pi-valenced relations pi-valenced."""
    pi_sets = [frozenset(s) for s in [(), (2,), (3,), (5,), (7,), (2, 3), (2, 5),
                                      (2, 7), (3, 5), (3, 7), (5, 7), (2, 3, 5),
                                      (2, 3, 7), (2, 5, 7), (3, 5, 7), (2, 3, 5, 7)]]
    for scheme in corpus12:
        hg = scheme.hypergroup
        for t in scheme.closed_subsets():
            n_t = scheme.hypergroup.valency_of_mask(t.bits)
            q = sh.quotient_scheme(scheme, t)
            for s in range(len(scheme.valencies)):
                n_s = scheme.valencies[s]
                n_image = q.valencies[q.hypergroup.coset_of[s]]
                for pi in pi_sets:
                    if sh.is_pi_number(n_s, pi) and sh.is_pi_number(n_t, pi):
                        assert sh.is_pi_number(n_image, pi), (
                            f"pi-valency transfer law: {scheme.name}: "
                            f"T={t.bits:#x} s={s} pi={sorted(pi)}"
                        )


def test_valency_transfer_to_quotients(corpus12):
    """The quotient's total valency is the parent's divided by the
    modulus valency, relation by relation through double cosets."""
    for scheme in corpus12:
        hg = scheme.hypergroup
        n_full = sum(scheme.valencies)
        for t in scheme.closed_subsets():
            n_t = scheme.hypergroup.valency_of_mask(t.bits)
            q = sh.quotient_scheme(scheme, t)
            assert sum(q.valencies) * n_t == n_full, (
                f"valency transfer law: {scheme.name}: T={t.bits:#x}"
            )
            for s in range(len(scheme.valencies)):
                tst = hg.mul_masks(hg.mul_masks(t.bits, 1 << s), t.bits)
                n_tst = scheme.hypergroup.valency_of_mask(tst)
                n_image = q.valencies[q.hypergroup.coset_of[s]]
                assert n_image * n_t == n_tst, (
                    f"double-coset valency law: {scheme.name}: "
                    f"T={t.bits:#x} s={s}"
                )


def test_thinness_criterion_for_solvable_schemes(corpus12):
    """A solvable pi-valenced scheme with no nontrivial thin subnormal
    closed subset of pi-number valency must itself be thin."""
    pi_sets = [frozenset(s) for s in [(2,), (3,), (5,), (7,), (2, 3), (2, 5),
                                      (3, 5), (2, 3, 5), (2, 3, 5, 7)]]
    tested = 0
    for scheme in corpus12:
        if not sh.is_solvable_scheme(scheme):
            continue
        hg = scheme.hypergroup
        universe = hg.universe()
        closed = scheme.closed_subsets()
        for pi in pi_sets:
            if not sh.is_pi_valenced(scheme, pi):
                continue
            witness = None
            for t in closed:
                if len(t.members()) == 1:
                    continue
                if not all(scheme.valencies[s] == 1 for s in t.members()):
                    continue
                if not sh.is_pi_number(scheme.hypergroup.valency_of_mask(t.bits), pi):
                    continue
                if sh.is_subnormal(t, universe):
                    witness = t
                    break
            if witness is None:
                tested += 1
                assert sh.is_thin(hg), (
                    f"solvable thinness criterion: {scheme.name}: pi={sorted(pi)}"
                )
    assert tested > 0


def test_quotient_scheme_solvability_and_subnormal_lift(corpus12):
    """Quotients of solvable schemes by subnormal closed subsets stay
    solvable, and subnormality downstairs lifts upstairs."""
    for scheme in corpus12:
        if not sh.is_solvable_scheme(scheme):
            continue
        hg = scheme.hypergroup
        universe = hg.universe()
        closed = scheme.closed_subsets()
        for t in closed:
            if not sh.is_subnormal(t, universe):
                continue
            q = sh.quotient_scheme(scheme, t)
            ctx = f"{scheme.name}: T={t.bits:#x}"
            assert sh.is_solvable_scheme(q), (
                f"subnormal-quotient scheme solvability: {ctx}"
            )
            qhg = q.hypergroup
            qfull = qhg.universe()
            for u in closed:
                if t.bits & ~u.bits:
                    continue
                down = frozenset(qhg.coset_of[s] for s in u.members())
                down_sub = sh.ClosedSubset(qhg, sum(1 << s for s in down))
                if sh.is_subnormal(down_sub, qfull):
                    assert sh.is_subnormal(u, universe), (
                        f"scheme subnormality lift: {ctx} U={u.bits:#x}"
                    )
