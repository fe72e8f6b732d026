"""Brute-force oracles.

These deliberately recompute results of the fast algorithms by scanning
whole power sets or whole superset lattices.  They exist so tests can
cross-check the clever code against something too dumb to be wrong.
"""
from __future__ import annotations

from schemehall.errors import EmptyInputError, InternalInconsistencyError, SearchOverflowError
from schemehall.hypergroup import ClosedSubset, ElementSubset, Hypergroup

__all__ = [
    "all_closed_subsets_scan",
    "closure_scan",
    "solvable_chain_scan",
]

SCAN_CAP = 16


def all_closed_subsets_scan(hg: Hypergroup) -> tuple[ClosedSubset, ...]:
    """Every closed subset, found by testing all 2^k element subsets."""
    if hg.size > SCAN_CAP:
        raise SearchOverflowError(
            f"power set scan capped at order {SCAN_CAP}, got {hg.size}"
        )
    out = []
    for mask in range(1, 1 << hg.size):
        if mask & 1 and hg.is_closed_mask(mask):
            out.append(ClosedSubset(hg, mask))
    out.sort(key=ElementSubset.sort_key)
    return tuple(out)


def closure_scan(subset: ElementSubset) -> ClosedSubset:
    """Smallest closed superset, as an intersection over the full scan."""
    if subset.bits == 0:
        raise EmptyInputError("cannot close the empty set")
    hg = subset.parent
    best = None
    for c in all_closed_subsets_scan(hg):
        if subset.bits & ~c.bits:
            continue
        if best is None or c.bits & ~best:
            if best is None:
                best = c.bits
            else:
                best &= c.bits
    if best is None or not hg.is_closed_mask(best):
        raise InternalInconsistencyError("power-set scan found no closed superset")
    return ClosedSubset(hg, best)


def solvable_chain_scan(hg: Hypergroup) -> list[int] | None:
    """Solvable chain search that branches over all closed supersets.

    Returns the chain as a list of masks from {0} to the full set, or
    None.  Unlike the production search this one does not restrict to
    minimal supersets, so it double-checks that the restriction loses
    nothing.
    """
    from schemehall.hypergroup import enumerate_closed_subsets, is_strongly_normal
    from schemehall.solvability import step_quotient_order

    from schemehall.arith import is_prime

    subs = enumerate_closed_subsets(hg)
    full = hg.full_mask

    def extend(chain: list[int]) -> list[int] | None:
        cur = chain[-1]
        if cur == full:
            return chain
        for nxt in subs:
            if nxt.bits == cur or nxt.bits & ~full or cur & ~nxt.bits:
                continue
            f = ClosedSubset(hg, cur)
            g = ClosedSubset(hg, nxt.bits)
            if not is_strongly_normal(f, g):
                continue
            if not is_prime(step_quotient_order(hg, cur, nxt.bits)):
                continue
            got = extend(chain + [nxt.bits])
            if got is not None:
                return got
        return None

    return extend([1])
