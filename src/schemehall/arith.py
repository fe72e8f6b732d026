"""Small number-theoretic helpers.

Everything here works on plain ints.  A "pi-number" for a set of primes
pi is a positive integer all of whose prime divisors lie in pi; 1 is a
pi-number for every pi, including the empty set.
"""
from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

__all__ = [
    "is_prime",
    "prime_factors",
    "is_pi_number",
    "pi_part",
    "validate_pi",
    "format_pi",
]


def is_prime(n: int) -> bool:
    """Primality by trial division; plenty for the orders handled here.
    Anything but a plain int, a bool or a float included, is not prime."""
    if type(n) is not int or n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n in increasing order."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=4096)
def _prime_set(n: int) -> frozenset[int]:
    """prime_factors(n) as a frozenset, cached: the same few valencies and
    indices are asked about again for every closed subset and pi.  A
    ValueError for n < 1 is raised afresh on each call, never cached."""
    return frozenset(prime_factors(n))


def is_pi_number(n: int, pi: Iterable[int]) -> bool:
    """True when every prime divisor of n lies in pi."""
    return _prime_set(n).issubset(pi)


def pi_part(n: int, pi: frozenset[int]) -> int:
    """Largest divisor of n that is a pi-number."""
    out = 1
    for p in _prime_set(n):
        if p in pi:
            while n % p == 0:
                n //= p
                out *= p
    return out


def validate_pi(pi: Iterable[int]) -> frozenset[int]:
    """Normalize a collection of primes to a frozenset, rejecting non-primes
    and, before any trial division, ints above 2**20."""
    out = frozenset(pi)
    for p in out:
        # n * rank**2 <= SCHEME_SIZE_CAP = 2**20 for every admitted scheme,
        # so no larger prime divides an order or valency it could ask about
        if type(p) is int and p > 1 << 20:
            raise ValueError(f"{p} is above 2**20, the largest order a scheme may have")
        if not is_prime(p):
            raise ValueError(f"{p!r} is not prime")
    return out


def format_pi(pi: frozenset[int]) -> str:
    return "{" + ",".join(str(p) for p in sorted(pi)) + "}"
