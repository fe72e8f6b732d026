"""Solvability through the thin residue.

The thin residue O^θ(T) of a closed subset T is the closure of the
products s^s, s in T.  Every strongly normal closed subset of T holds
each s^s, and for scheme hypergroups O^θ(T) is strongly normal itself
(Zieschang 2005), so T // O^θ(T) is a group.  H is solvable exactly when
its residue series H = T_0 > T_1 = O^θ(T_0) > ... reaches {0}, no step
equal to its whole, with every factor T_i // T_{i+1} a solvable group.
group_from_thin reads each factor off as a group; its thinness check is
the strong-normality check of the step.

A solvable chain {0} = F_0 < F_1 < ... < F_n = H, each F_{i-1} strongly
normal in F_i with F_i // F_{i-1} of prime order, is a witness built
only when asked for: each factor group is refined through a series of
prime indices, and its subgroups are lifted to closed subsets.
"""
from __future__ import annotations

from .arith import is_prime
from .errors import InternalInconsistencyError
from .groups import Table, _derived_series, generated_subgroup, is_solvable_group
from .hypergroup import (
    ClosedSubset,
    Hypergroup,
    _double_cosets,
    _thin_index_table,
    _thin_residue,
    bits_of,
    is_strongly_normal,
)
from .quotient import QuotientHypergroup, lift_closed, subquotient

__all__ = [
    "SolvableChain",
    "group_from_thin",
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


def group_from_thin(hg: Hypergroup) -> Table:
    """Read a thin hypergroup off as a Cayley table, checking only thinness:
    validate_hypergroup built hg, checking H1-H3 with the neutral put at 0.
    The table of element indices is read once per hypergroup: the builders
    that read it off a thin table keep it on hg (validate_hypergroup,
    thin_hypergroup, which from_group calls, and quotient, whose H // {0}
    shares its parent's), and otherwise it is read here and kept."""
    t = hg._thin_table
    if t is None:
        t = _thin_index_table(hg.table)
        if t is None:
            p, q = next(
                (p, q) for p, row in enumerate(hg.table) for q, m in enumerate(row) if m & (m - 1)
            )
            raise InternalInconsistencyError(
                f"product {p} * {q} is not a single element; hypergroup is not thin"
            )
        hg._thin_table = t
    return t


def _residue_series(hg: Hypergroup) -> tuple[tuple[QuotientHypergroup, Table], ...] | None:
    """The factors T // O^θ(T) of the residue series from the top down,
    as (quotient, group table), cached; None when hg is not solvable.
    Each quotient is a subquotient of hg, its cosets masks over hg.  A
    series that stands still needs no quotient.  The one-element
    hypergroup has the factor {0} // {0}, so a solvable hypergroup
    always has a top factor, and the cache holds () for not solvable."""
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
        q = subquotient(hg, ClosedSubset(hg, outer), ClosedSubset(hg, inner))
        table = group_from_thin(q)
        if not is_solvable_group(table):
            hg._residue = ()
            return None
        factors.append((q, table))
    hg._residue = tuple(factors)
    return hg._residue


def _prime_series(t: Table) -> list[int]:
    """Subgroups 1 = H_0 < ... < H_m = G of a solvable group, each normal
    of prime index in the next.  Each abelian section D' < D of the
    derived series is climbed from D' by <cur, g> of least order, then
    least g; it is normal in D, as D / D' is abelian."""
    out = [1]
    for top in reversed(_derived_series(t)[:-1]):
        while out[-1] != top:
            cur = out[-1]
            steps = []
            for g in bits_of(top & ~cur):
                ext = generated_subgroup(t, cur | 1 << g)
                if is_prime(ext.bit_count() // cur.bit_count()):
                    steps.append((ext.bit_count(), g, ext))
            out.append(min(steps)[2])
    return out


def step_quotient_order(hg: Hypergroup, inner: int, outer: int) -> int:
    """Number of double cosets of the closed set `inner` inside `outer`."""
    return len(_double_cosets(hg, inner, outer))


def solvable_chain(hg: Hypergroup) -> SolvableChain | None:
    """A solvable chain lifted by lift_closed from the residue series, or
    None; each step is checked strongly normal with a prime number of
    double cosets.  Each call refines the cached series afresh."""
    series = _residue_series(hg)
    if series is None:
        return None
    chain = [hg.neutral_subset()]
    for q, table in reversed(series):
        chain.extend(lift_closed(q, q.subset(h)) for h in _prime_series(table)[1:])
    primes = tuple(step_quotient_order(hg, lo.bits, hi.bits) for lo, hi in zip(chain, chain[1:]))
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
