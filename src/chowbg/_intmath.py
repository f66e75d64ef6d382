"""Small exact-integer helpers: primality, factoring, invariant factors.

Everything here works on arbitrary-precision Python ints.  ``is_prime`` reads
a table below 41**2 and tries division by the first 13 primes; ``factorint``
strips those primes.  What is left of a larger number, with no prime factor
up to 41, goes to ``_factoring``: the strong-probable-prime test to those 13
bases, exact below ``PRIMALITY_BOUND`` and refused at or above it, and the
splitting of composites.  A table on orders with small prime factors never
compiles it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: the least composite that is a strong probable prime to every base
PRIMALITY_BOUND = 3317044064679887385961981


def _sieve(limit: int) -> frozenset[int]:
    """The primes below limit <= 41**2: the numbers >= 2 no base divides, and the bases."""
    flags = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for p in _BASES:
        flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return frozenset(compress(range(limit), flags))


_SMALL_PRIMES = _sieve(1681)


def is_prime(n: int) -> bool:
    # the hot path: 2 and 3 without a lookup, then the table below 41**2
    if n < 4:
        return n > 1
    if n < 1681:
        return n in _SMALL_PRIMES
    for p in _BASES:
        if n % p == 0:
            return False
    from ._factoring import certify_prime  # past trial division: compiled on first use

    return certify_prime(n)


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


@lru_cache(maxsize=4096)
def factorint(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as sorted ((prime, exponent), ...)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    exponents: dict[int, int] = {}
    rest = n
    for p in _BASES:
        while rest % p == 0:
            rest //= p
            exponents[p] = exponents.get(p, 0) + 1
    if rest >= 1681:  # past trial division: compiled on first use
        from ._factoring import factor_rest

        exponents.update(factor_rest(rest, n))
    elif rest > 1:  # no prime factor up to 41: a prime below 41**2
        exponents[rest] = 1
    return tuple(sorted(exponents.items()))


def prime_power_decompose(n: int) -> tuple[int, int] | None:
    """Return (p, e) with n == p**e if n >= 2 is a prime power, else None."""
    fac = factorint(n) if n >= 2 else ()
    return fac[0] if len(fac) == 1 else None


def is_prime_power(n: int) -> bool:
    return prime_power_decompose(n) is not None


def invariant_factors(divisors) -> tuple[int, ...]:
    """Invariant-factor form of a finite abelian group given by cyclic orders.

    Orders equal to 1 are dropped; the result is a divisibility chain in
    decreasing order, e.g. (2, 3, 4) -> (12, 2).
    """
    exps: dict[int, list[int]] = {}
    for d in divisors:
        if d < 1:
            raise ValueError(f"cyclic order must be >= 1, got {d}")
        if d == 1:
            continue
        for p, e in factorint(d):
            exps.setdefault(p, []).append(e)
    for elist in exps.values():
        elist.sort(reverse=True)
    width = max((len(v) for v in exps.values()), default=0)
    factors = []
    for k in range(width):
        f = 1
        for p, elist in exps.items():
            if k < len(elist):
                f *= p ** elist[k]
        factors.append(f)
    return tuple(factors)
