"""Small exact-integer helpers: primality, factoring, multiplicative orders.

Everything here works on arbitrary-precision Python ints.  ``is_prime`` is
trial division by the first 13 primes, then a strong-probable-prime
(Miller-Rabin) test to those 13 bases, which no composite passes below
``PRIMALITY_BOUND`` (Sorenson and Webster, Math. Comp. 86 (2017)), so the
answer is exact.  ``factorint`` strips those primes and splits what is left
by a short Fermat search, which splits at once a product of two factors
close to its square root, then by Pollard rho with Brent's cycle finding
(Brent, BIT 20 (1980)).  A number that must be tested at or above the bound
raises ``UnsupportedError`` naming the number asked about: no answer here is
a probable one.  15-digit primes and products of two 8-digit primes take
milliseconds; the slowest case below the bound, two 13-digit factors far
apart, takes about a second.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd, isqrt

from .errors import UnsupportedError

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_FERMAT_STEPS = 256  # values of a that _fermat_factor tries, one isqrt each
# psi_13: the least composite that is a strong probable prime to every base
PRIMALITY_BOUND = 3317044064679887385961981


def _sieve(limit: int) -> frozenset[int]:
    """The primes below limit <= 41**2: the numbers >= 2 no base divides, and the bases."""
    flags = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for p in _BASES:
        flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return frozenset(compress(range(limit), flags))


_SMALL_PRIMES = _sieve(1681)


def _strong_probable_prime(n: int) -> bool:
    """True if odd n > 41 passes the strong test to every base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    # the hot path: 2 and 3 without a lookup, then the table below 41**2
    if n < 4:
        return n > 1
    if n < 1681:
        return n in _SMALL_PRIMES
    for p in _BASES:
        if n % p == 0:
            return False
    if n >= PRIMALITY_BOUND:  # refused before any power: n may have thousands of digits
        raise UnsupportedError(
            f"cannot certify whether {n} is prime: exact primality is only "
            f"available below {PRIMALITY_BOUND}"
        )
    return _strong_probable_prime(n)


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _fermat_factor(n: int) -> int | None:
    """A proper factor of an odd composite n with no prime factor up to 41,
    if a^2 - n is a square b^2 for one of the first ``_FERMAT_STEPS`` values
    of a from ceil(sqrt(n)): then n = (a - b)(a + b).  The least such a
    belongs to the split with factors closest to sqrt(n), so a - b > 1.
    Otherwise None: the split is left to ``_brent_factor``."""
    a = isqrt(n)
    if a * a == n:
        return a
    a += 1
    r = a * a - n
    for _ in range(_FERMAT_STEPS):
        b = isqrt(r)
        if b * b == r:
            return a - b
        r += 2 * a + 1
        a += 1
    return None


def _brent_factor(n: int) -> int:
    """A proper factor of a composite n with no prime factor up to 41:
    Pollard rho on x -> x**2 + c, with Brent's cycle finding and gcds taken
    over batches of 128 steps; c = 1, 2, ... until a split is found."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step again from its start, one gcd a step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


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
    pending = [rest] if rest > 1 else []
    while pending:
        m = pending.pop()
        try:
            m_is_prime = is_prime(m)
        except UnsupportedError:  # name the number asked about, not the cofactor
            raise UnsupportedError(
                f"cannot certify the prime factors of {n}: exact primality is only "
                f"available below {PRIMALITY_BOUND}"
            ) from None
        if m_is_prime:
            exponents[m] = exponents.get(m, 0) + 1
        else:
            d = _fermat_factor(m) or _brent_factor(m)
            pending += (d, m // d)
    return tuple(sorted(exponents.items()))


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
