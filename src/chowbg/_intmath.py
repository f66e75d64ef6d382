"""Small exact-integer helpers: primality, factoring, multiplicative orders.

Everything here works on arbitrary-precision Python ints.  Primality and
factoring use trial division: instant on catalog-sized orders, but seconds
on 15-digit primes or on products of two large primes.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


@lru_cache(maxsize=4096)
def factorint(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as sorted ((prime, exponent), ...)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def prime_power_decompose(n: int) -> tuple[int, int] | None:
    """Return (p, e) with n == p**e if n >= 2 is a prime power, else None."""
    if n < 2:
        return None
    fac = factorint(n)
    if len(fac) != 1:
        return None
    return fac[0]


def is_prime_power(n: int) -> bool:
    return prime_power_decompose(n) is not None


def p_valuation(n: int, p: int) -> int:
    """Largest r with p**r dividing n (n >= 1)."""
    if n < 1:
        raise ValueError(f"valuation undefined for {n}")
    r = 0
    while n % p == 0:
        n //= p
        r += 1
    return r


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/m)^*, a coprime to m >= 2: start from phi(m) and divide
    out each prime factor q while a**(order / q) is still 1."""
    if m < 2 or gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit modulo {m}")
    order = 1
    for q, e in factorint(m):
        order *= q ** (e - 1) * (q - 1)
    for q, _ in factorint(order):
        while order % q == 0 and pow(a, order // q, m) == 1:
            order //= q
    return order


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
