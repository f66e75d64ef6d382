"""Primality and factoring past trial division, for ``_intmath``.

``_intmath.is_prime`` and ``factorint`` strip the first 13 primes and read
the primes below 41**2 from a table themselves; only a number with no prime
factor up to 41, at least 41**2, comes here, so this module is compiled on
first use.  ``certify_prime`` is the strong-probable-prime (Miller-Rabin)
test to those 13 bases, which no composite passes below ``PRIMALITY_BOUND``
(Sorenson and Webster, Math. Comp. 86 (2017)), so the answer is exact.
``factor_rest`` splits a composite by a short Fermat search, which splits at
once a product of two factors close to its square root, then by Pollard rho
with Brent's cycle finding (Brent, BIT 20 (1980)).  A number that must be
tested at or above the bound raises ``UnsupportedError`` naming the number
asked about, by its first 20 digits and its length if it has more than 40,
read without converting all of it (``str()`` refuses an int of more than
``sys.get_int_max_str_digits()`` digits): no answer here is a probable one.
15-digit primes and products of two 8-digit primes take milliseconds; the
slowest case below the bound, two 13-digit factors far apart, takes about a
second.
"""

from __future__ import annotations

from math import gcd, isqrt

from ._intmath import _BASES, PRIMALITY_BOUND, is_prime
from .errors import UnsupportedError, echo_int

_FERMAT_STEPS = 256  # values of a that _fermat_factor tries, one isqrt each


def certify_prime(n: int) -> bool:
    """Whether n, with no prime factor up to 41 and at least 41**2, is prime;
    refused at or above the bound before any power: n may have thousands of
    digits."""
    if n >= PRIMALITY_BOUND:
        raise _uncertified(f"whether {echo_int(n)} is prime")
    return _strong_probable_prime(n)


def factor_rest(rest: int, n: int) -> dict[int, int]:
    """The {prime: exponent} factorization of ``rest``, a cofactor of n with no
    prime factor up to 41; a refusal names n, the number asked about."""
    exponents: dict[int, int] = {}
    pending = [rest]
    while pending:
        m = pending.pop()
        try:
            m_is_prime = is_prime(m)
        except UnsupportedError:
            raise _uncertified(f"the prime factors of {echo_int(n)}") from None
        if m_is_prime:
            exponents[m] = exponents.get(m, 0) + 1
        else:
            d = _fermat_factor(m) or _brent_factor(m)
            pending += (d, m // d)
    return exponents


def _uncertified(what: str) -> UnsupportedError:
    return UnsupportedError(
        f"cannot certify {what}: exact primality is only available below {PRIMALITY_BOUND}"
    )


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
