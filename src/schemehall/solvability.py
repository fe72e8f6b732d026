"""Solvability through the thin residue.

The thin residue O^θ(T) of a closed subset T is the closure of the
products s^s, s in T.  Every strongly normal closed subset of T holds
each s^s, and for scheme hypergroups O^θ(T) is strongly normal itself
(Zieschang 2005), so T // O^θ(T) is a group.  H is solvable exactly when
its residue series H = T_0 > T_1 = O^θ(T_0) > ... reaches {0}, no step
equal to its whole, with every factor T_i // T_{i+1} a solvable group.
Each factor is checked thin by is_thin, which is the strong-normality
check of the step, and the factor's derived series runs on the factor
itself, a thin hypergroup: the series keeps the factors alone, and no
index table is read.

A solvable chain {0} = F_0 < F_1 < ... < F_n = H, each F_{i-1} strongly
normal in F_i with F_i // F_{i-1} of prime order, is a witness built
only when asked for: each factor group is refined through a series of
prime indices, and its subgroups are lifted to closed subsets.
"""
from __future__ import annotations

from .arith import is_prime
from .errors import InternalInconsistencyError
from .groups import _derived_series, is_solvable_group
from .hypergroup import (
    ClosedSubset,
    Hypergroup,
    _closed,
    _double_cosets,
    _thin_residue,
    bits_of,
    is_strongly_normal,
    is_thin,
)
from .quotient import QuotientHypergroup, _lift, _quotient

__all__ = [
    "SolvableChain",
    "solvable_chain",
    "is_solvable",
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


def _residue_series(hg: Hypergroup) -> tuple[QuotientHypergroup, ...] | None:
    """The factors T // O^θ(T) of the residue series from the top down,
    cached; None when hg is not solvable.  Each quotient is built by
    quotient._quotient over hg, its cosets masks over hg, with no check
    that T or its residue is closed: each is the whole set or a
    closure_mask result, which its exit test proved closed.  Each
    is checked thin by is_thin and solvable by its derived series, both
    read off the quotient.  is_thin reads
    only each s^s, which is enough: _prove checked H1-H3 on q, and once
    every s^s is {0}, any x in pq has p^x inside p^(pq) = (p^p)q = {q},
    so pq = p(p^x) = (pp^)x = {x}.  A series that stands still needs no
    quotient.  The one-element hypergroup has the factor {0} // {0}, so
    a solvable hypergroup always has a top factor, and the cache holds
    () for not solvable."""
    if hg._residue is not None:
        return hg._residue or None
    masks = [hg.full_mask]
    while len(masks) == 1 or masks[-1] != 1:
        masks.append(_thin_residue(hg, masks[-1]))
        if masks[-1] == masks[-2] != 1:
            hg._residue = ()
            return None
    factors = []
    for outer, inner in zip(masks, masks[1:]):
        name = f"{hg.name}|{bits_of(outer)}//{bits_of(inner)}"
        q = _quotient(hg, outer, _closed(hg, inner), name)
        if not is_thin(q):  # the step's strong-normality check
            raise InternalInconsistencyError(f"residue factor {q.name} is not thin")
        if not is_solvable_group(q):
            hg._residue = ()
            return None
        factors.append(q)
    hg._residue = tuple(factors)
    return hg._residue


def _prime_series(q: Hypergroup) -> list[int]:
    """Subgroups 1 = H_0 < ... < H_m = G of the solvable group the thin
    hypergroup q is, each normal of prime index in the next.  Each abelian
    section D' < D of the derived series is climbed from D' by <cur, g> of
    least order, then least g; it is normal in D, as D / D' is abelian."""
    out = [1]
    for top in reversed(_derived_series(q)[:-1]):
        while out[-1] != top:
            cur = out[-1]
            steps = []
            for g in bits_of(top & ~cur):
                ext = q.closure_mask(cur | 1 << g)
                if is_prime(ext.bit_count() // cur.bit_count()):
                    steps.append((ext.bit_count(), g, ext))
            out.append(min(steps)[2])
    return out


def solvable_chain(hg: Hypergroup) -> SolvableChain | None:
    """A solvable chain lifted by quotient._lift from the residue series,
    or None; each step is checked strongly normal with a prime number of
    double cosets.  Each call refines the cached series afresh.  The
    subgroups _prime_series gives are 1, the factor itself or
    closure_mask results, which its exit test proved closed, so they
    skip lift_closed's input check; _lift checks each lift closed in hg."""
    series = _residue_series(hg)
    if series is None:
        return None
    chain = [hg.neutral_subset()]
    for q in reversed(series):
        chain.extend(_lift(q, h) for h in _prime_series(q)[1:])
    primes = tuple(len(_double_cosets(hg, lo.bits, hi.bits)) for lo, hi in zip(chain, chain[1:]))
    for lo, hi, p in zip(chain, chain[1:], primes):
        if not is_prime(p):
            raise InternalInconsistencyError(
                f"strongly normal cover step has {p} double cosets, not a prime"
            )
        if not is_strongly_normal(lo, hi):
            raise InternalInconsistencyError(f"chain step {lo} is not strongly normal in {hi}")
    return SolvableChain(tuple(chain), primes)


def is_solvable(hg: Hypergroup) -> bool:
    return _residue_series(hg) is not None
