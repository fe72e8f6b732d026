"""A fixed reference workload that tells how fast the machine runs now.

The benchmark's host is shared: other tenants slow every core alike,
by up to 60%, in stretches of seconds to minutes.  A run that falls
in such a stretch reads slow however its own passes are summarised.
So each run also times this kernel, in windows between the library
calls it times, and run.py scales each call's time by REFERENCE_S
over the kernel's mean time in the windows either side of the call.
The kernel never changes and does not touch the library, so a slow
stretch cancels out while a change to the library still shows in
full.

The kernel does what the library's inner loops do: bitmask products
over a multiplication table, closures, inverse maps, dict counts and
frozenset keys, all in pure Python.
"""
from __future__ import annotations

import random
import time

RANK = 20
MASKS = 240
# about the time of one kernel() on a quiet 2-vCPU Intel Xeon (2.1 GHz)
# under Python 3.11; only a scale, so that scaled times stay near
# measured ones
REFERENCE_S = 0.0200


def _table():
    rng = random.Random(20191011)
    table = [[0] * RANK for _ in range(RANK)]
    for a in range(RANK):
        table[0][a] = table[a][0] = 1 << a
    for a in range(1, RANK):
        for b in range(1, RANK):
            m = 0
            for _ in range(rng.randint(1, 3)):
                m |= 1 << rng.randrange(RANK)
            table[a][b] = m
    inverse = list(range(RANK))
    masks = [1 << rng.randrange(1, RANK) | 1 << rng.randrange(1, RANK) for _ in range(MASKS)]
    return table, inverse, masks


TABLE, INVERSE, START = _table()


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mul(left: int, right: int) -> int:
    out = 0
    for a in _bits(left):
        row = TABLE[a]
        for b in _bits(right):
            out |= row[b]
    return out


def _closure(mask: int) -> int:
    cur = mask | 1
    while True:
        star = 0
        for s in _bits(cur):
            star |= 1 << INVERSE[s]
        nxt = cur | star | _mul(cur, cur)
        if nxt == cur:
            return cur
        cur = nxt


def kernel() -> float:
    """Seconds one fixed pass of the kernel takes."""
    t0 = time.perf_counter()
    seen: dict[frozenset, int] = {}
    for mask in START:
        closed = _closure(mask)
        key = frozenset(_bits(closed))
        seen[key] = seen.get(key, 0) + 1
    if sum(seen.values()) != MASKS:
        raise AssertionError("calibration kernel lost a mask")
    return time.perf_counter() - t0


def window(repeats: int) -> float:
    """The mean of several kernel() times, taken back to back."""
    return sum(kernel() for _ in range(repeats)) / repeats
