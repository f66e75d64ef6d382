from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from chowbg._intmath import multiplicative_order, require_prime


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
