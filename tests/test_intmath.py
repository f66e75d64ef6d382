from math import gcd, prod

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from chowbg import _intmath
from chowbg._intmath import (
    PRIMALITY_BOUND,
    _fermat_factor,
    _strong_probable_prime,
    factorint,
    is_prime,
    multiplicative_order,
    require_prime,
)
from chowbg.errors import UnsupportedError
from oracles import trial_factorint, trial_is_prime

PSI_12 = 318665857834031151167461  # least strong pseudoprime to the first 12 primes
PRIMES_BELOW_1E5 = [n for n in range(10**5) if trial_is_prime(n)]
# products of two primes near sqrt(psi_13) = 1.82e12, the slowest splits for rho
NEAR_ROOT_OF_BOUND = [
    (1821275394067, 1821275394119),
    (1821275394959, 1821275395001),
    (1821275395019, 1821275395031),
]


def next_prime(n):
    n += 1
    while not trial_is_prime(n):
        n += 1
    return n


def order_by_search(a, m):
    k, x = 1, a % m
    while x != 1:
        x = x * a % m
        k += 1
    return k


class TestMultiplicativeOrder:
    @given(st.integers(min_value=2, max_value=3000), st.integers(min_value=-10_000, max_value=10_000))
    def test_matches_search(self, m, a):
        assume(gcd(a, m) == 1)
        assert multiplicative_order(a, m) == order_by_search(a, m)

    def test_large_prime_modulus(self):
        # 10**9 + 7 - 1 = 2 * 500000003, and 2 is a quadratic residue mod 10**9 + 7
        assert multiplicative_order(2, 10**9 + 7) == 500000003

    @pytest.mark.parametrize("a, m", [(2, 4), (0, 5), (3, 1)])
    def test_non_unit_rejected(self, a, m):
        with pytest.raises(ValueError, match="is not a unit modulo"):
            multiplicative_order(a, m)


def test_require_prime_message():
    with pytest.raises(ValueError, match="^p must be prime, got 4$"):
        require_prime(4)


class TestAgainstTrialDivision:
    @given(st.integers(min_value=-10, max_value=10**6))
    def test_is_prime(self, n):
        assert is_prime(n) == trial_is_prime(n)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_factorint(self, n):
        assert factorint(n) == trial_factorint(n)

    @given(st.sampled_from(PRIMES_BELOW_1E5), st.sampled_from(PRIMES_BELOW_1E5))
    def test_products_of_two_primes(self, p, q):
        assert not is_prime(p * q)
        assert factorint(p * q) == trial_factorint(p * q)

    def test_every_n_below_the_sieve_bound(self):
        # 41**2: the small-prime table decides these without a power
        assert [n for n in range(-3, 1700) if is_prime(n)] == [
            n for n in range(-3, 1700) if trial_is_prime(n)
        ]


class TestFixedCases:
    @pytest.mark.parametrize(
        "n, factors",
        [
            (561, ((3, 1), (11, 1), (17, 1))),  # Carmichael
            (2047, ((23, 1), (89, 1))),  # strong pseudoprime to base 2
            (3215031751, ((151, 1), (751, 1), (28351, 1))),  # to bases 2, 3, 5, 7
            (3825123056546413051, ((149491, 1), (747451, 1), (34233211, 1))),  # to 2 ... 23
            (PSI_12, ((399165290221, 1), (798330580441, 1))),  # to 2 ... 37
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n, factors):
        assert not is_prime(n)
        assert factorint(n) == factors
        assert prod(p**e for p, e in factors) == n

    def test_psi_13_is_refused_not_guessed(self):
        # the 13-base test alone would call it prime
        assert _strong_probable_prime(PRIMALITY_BOUND)
        with pytest.raises(UnsupportedError, match=str(PRIMALITY_BOUND)):
            is_prime(PRIMALITY_BOUND)
        with pytest.raises(UnsupportedError, match=str(PRIMALITY_BOUND)):
            factorint(PRIMALITY_BOUND)
        with pytest.raises(UnsupportedError, match=str(PRIMALITY_BOUND)):
            factorint(4 * PRIMALITY_BOUND)

    def test_mersenne_primes_either_side_of_the_bound(self):
        assert is_prime(2**61 - 1)
        with pytest.raises(UnsupportedError):
            is_prime(2**89 - 1)

    def test_small_factors_are_stripped_above_the_bound(self):
        assert not is_prime(2**100)
        assert factorint(2**100) == ((2, 100),)
        assert factorint(3**60 * 41**20) == ((3, 60), (41, 20))

    def test_15_digit_prime(self):
        assert is_prime(10**15 + 37)
        assert factorint(10**15 + 37) == ((10**15 + 37, 1),)

    @pytest.mark.parametrize("p", [43, 1000003, 10**9 + 7])
    def test_prime_squares(self, p):
        assert factorint(p**2) == ((p, 2),)
        assert factorint(82 * p**2) == tuple(sorted({2: 1, 41: 1, p: 2}.items()))

    def test_factorint_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="^cannot factor 0$"):
            factorint(0)


class TestFermatPass:
    @given(st.integers(min_value=42, max_value=10**5))
    def test_consecutive_prime_products(self, n):
        p = next_prime(n)
        q = next_prime(p)
        assert _fermat_factor(p * q) == p
        assert factorint(p * q) == trial_factorint(p * q)

    @pytest.mark.parametrize("p, q", NEAR_ROOT_OF_BOUND)
    def test_close_factors_below_the_bound_skip_rho(self, p, q, monkeypatch):
        # too large for trial_factorint; trial_is_prime certifies both factors
        assert p * q < PRIMALITY_BOUND and trial_is_prime(p) and trial_is_prime(q)

        def no_rho(n):
            raise AssertionError(f"rho called on {n}")

        monkeypatch.setattr(_intmath, "_brent_factor", no_rho)
        assert factorint.__wrapped__(p * q) == ((p, 1), (q, 1))
        assert factorint.__wrapped__(41 * p * q) == ((41, 1), (p, 1), (q, 1))

    def test_far_factors_are_left_to_rho(self):
        # 798330580441 = 2 * 399165290221 - 1: a^2 - n is square only ~3e10 steps out
        assert _fermat_factor(PSI_12) is None
        assert factorint(PSI_12) == ((399165290221, 1), (798330580441, 1))


def test_refusal_names_the_number_asked_about():
    n = 10**76 + 7  # 23 times a cofactor above the bound
    assert n % 23 == 0 and n // 23 > PRIMALITY_BOUND
    with pytest.raises(UnsupportedError) as info:
        factorint(n)
    assert str(info.value) == (
        f"cannot certify the prime factors of {n}: exact primality is only "
        f"available below {PRIMALITY_BOUND}"
    )
