import sys
from math import gcd, prod

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from chowbg import _factoring
from chowbg._cyclotomic import multiplicative_order
from chowbg._factoring import _fermat_factor, _strong_probable_prime
from chowbg._intmath import PRIMALITY_BOUND, factorint, is_prime, require_prime
from chowbg.errors import UnsupportedError, echo, echo_int
from chowbg.fields import COMPLEX, parse_field
from chowbg.groups import CyclicZ, O
from chowbg.models import chow_model
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

        monkeypatch.setattr(_factoring, "_brent_factor", no_rho)
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
        "cannot certify the prime factors of 10000000000000000000... (77 characters): "
        f"exact primality is only available below {PRIMALITY_BOUND}"
    )


def test_refusal_quotes_a_long_number_by_its_first_digits():
    with pytest.raises(UnsupportedError) as info:
        is_prime(10**80 + 1)  # 81 digits, prime to the 13 bases
    assert str(info.value) == (
        "cannot certify whether 10000000000000000000... (81 characters) is prime: "
        f"exact primality is only available below {PRIMALITY_BOUND}"
    )
    with pytest.raises(UnsupportedError, match=f"^cannot certify whether {PRIMALITY_BOUND} is"):
        is_prime(PRIMALITY_BOUND)  # 25 digits are quoted whole


MERSENNE_16607 = 2**16607 - 1  # 5,000 digits, more than str() converts by default


def test_refusal_of_a_number_past_the_str_limit_quotes_its_first_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the reference text, converted without the limit
    try:
        text = str(MERSENNE_16607)
    finally:
        sys.set_int_max_str_digits(limit)
    lead, digits = text[:20], len(text)
    assert digits == 5000 > limit
    with pytest.raises(UnsupportedError) as info:
        is_prime(MERSENNE_16607)
    assert str(info.value) == (
        f"cannot certify whether {lead}... ({digits} characters) is prime: "
        f"exact primality is only available below {PRIMALITY_BOUND}"
    )
    with pytest.raises(UnsupportedError) as info:
        chow_model(CyclicZ(MERSENNE_16607), COMPLEX, 2)
    assert str(info.value) == (
        f"cannot certify the prime factors of {lead}... ({digits} characters): "
        f"exact primality is only available below {PRIMALITY_BOUND}"
    )
    assert len(str(info.value)) < 300


@pytest.mark.parametrize("field", ["Q", "F_3", "F_5"])
def test_a_huge_order_over_a_field_without_its_roots_is_refused_briefly(field):
    # Q and F_5 lack mu_m, F_3 divides m: each refusal quotes m by its first digits
    m = 3 * MERSENNE_16607
    with pytest.raises(UnsupportedError) as info:
        chow_model(CyclicZ(m), parse_field(field), 2)
    assert "... (5000 characters)" in str(info.value) and len(str(info.value)) < 300


def test_a_huge_rank_needs_no_text_where_no_check_refuses():
    assert chow_model(O(10**5000), COMPLEX, 2).free == (1, 0, 1)


@given(st.integers(min_value=1, max_value=4300).flatmap(
    lambda k: st.integers(min_value=10 ** (k - 1), max_value=10**k - 1)
))
def test_quote_is_echo_of_the_digits(n):
    # below the str() limit the quote is the same text as errors.echo(str(n))
    assert echo_int(n) == echo(str(n))
