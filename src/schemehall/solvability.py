"""Solvable chains of closed subsets.

A hypergroup is solvable when a chain of closed subsets

    {0} = F_0 < F_1 < ... < F_n = H

exists in which every F_{i-1} is strongly normal in F_i and the
quotient F_i // F_{i-1} has prime order.  Strong normality makes that
quotient thin, so each step is a group of prime order.

A useful consequence drives the search: a valid step F < G admits no
closed subset strictly between F and G (the quotient has prime order
and therefore only trivial closed subsets), so stepping through covers
of the closed subset lattice loses nothing.
"""
from __future__ import annotations

from .arith import is_prime
from .errors import InternalInconsistencyError
from .hypergroup import (
    ClosedSubset,
    Hypergroup,
    _double_cosets,
    enumerate_closed_subsets,
    is_strongly_normal,
)

__all__ = [
    "SolvableChain",
    "solvable_chain",
    "is_solvable",
    "step_quotient_order",
]


class SolvableChain:
    """A witness chain, from the neutral subset up to the full set."""

    __slots__ = ("subsets", "step_primes")

    def __init__(self, subsets: tuple[ClosedSubset, ...], step_primes: tuple[int, ...]):
        self.subsets = subsets
        self.step_primes = step_primes

    def __repr__(self) -> str:
        path = " < ".join(str(list(c.members())) for c in self.subsets)
        return f"<SolvableChain {path} primes {list(self.step_primes)}>"


def step_quotient_order(hg: Hypergroup, inner: int, outer: int) -> int:
    """Number of double cosets of the closed set `inner` inside `outer`."""
    return len(_double_cosets(hg, inner, outer))


def _covers(hg: Hypergroup, cur: int) -> list[ClosedSubset]:
    """Minimal closed subsets strictly above `cur` in the lattice."""
    subs = enumerate_closed_subsets(hg)
    ups = [g for g in subs if cur & ~g.bits == 0 and g.bits != cur]
    out = []
    for g in ups:
        if any(k.bits != g.bits and k.bits & ~g.bits == 0 for k in ups):
            continue
        out.append(g)
    return out


def solvable_chain(hg: Hypergroup) -> SolvableChain | None:
    """Find a solvable chain, or return None.

    Depth first over lattice covers, visiting candidates in the
    deterministic order of enumerate_closed_subsets and memoizing
    subsets that cannot reach the top.  The outcome is cached on the
    hypergroup, which repeated Hall queries lean on.
    """
    try:
        return hg._solvable
    except AttributeError:
        pass
    full = hg.full_mask
    dead: set[int] = set()

    def extend(cur: int, acc: list[tuple[int, int]]) -> list[tuple[int, int]] | None:
        if cur == full:
            return acc
        if cur in dead:
            return None
        f = ClosedSubset(hg, cur)
        for g in _covers(hg, cur):
            if not is_strongly_normal(f, g):
                continue
            # g covers cur, so the group g // cur has no subgroups but
            # itself and the trivial one: it is cyclic of prime order
            order = step_quotient_order(hg, cur, g.bits)
            if not is_prime(order):
                raise InternalInconsistencyError(
                    f"strongly normal cover step has {order} double cosets, not a prime"
                )
            got = extend(g.bits, acc + [(g.bits, order)])
            if got is not None:
                return got
        dead.add(cur)
        return None

    steps = extend(1, [])
    if steps is None:
        hg._solvable = None
        return None
    masks = [1] + [m for m, _ in steps]
    chain = SolvableChain(
        tuple(ClosedSubset(hg, m) for m in masks),
        tuple(p for _, p in steps),
    )
    hg._solvable = chain
    return chain


def is_solvable(hg: Hypergroup) -> bool:
    return solvable_chain(hg) is not None
