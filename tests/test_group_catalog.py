from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chowbg.errors import GroupParseError, UnsupportedError
from chowbg.groups import (
    GL,
    SO,
    CyclicZ,
    FiniteAbelian,
    Gm,
    O,
    Product,
    Symmetric,
    Trivial,
    Wreath,
    format_group,
    generator_bound,
    parse_group_expr,
    product_terms,
    sylow_group,
)
from oracles import (
    abelian_invariant_factors,
    abelianization,
    group_dimension,
    group_order,
    order_valuation,
)
from strategies import finite_group_exprs, group_exprs


class TestParser:
    def test_cyclic_product_merges(self):
        assert parse_group_expr("Z/4 x Z/2") == FiniteAbelian((4, 2))

    def test_nested_wreath(self):
        assert parse_group_expr("wr(2, wr(2, 1))") == Wreath(2, Wreath(2, Trivial()))

    def test_so(self):
        assert parse_group_expr("SO(7)") == SO(7)

    def test_whitespace_insensitive(self):
        assert parse_group_expr(" wr( 3 ,Z/3 )  ") == Wreath(3, CyclicZ(3))

    def test_coprime_cyclics_become_one_factor(self):
        assert parse_group_expr("Z/2 x Z/3") == CyclicZ(6)

    def test_trivial_factors_dropped(self):
        assert parse_group_expr("1 x Gm x 1") == Gm()

    def test_mixed_product_left_assoc(self):
        g = parse_group_expr("Gm x Z/2 x GL(3)")
        assert g == Product(Product(Gm(), CyclicZ(2)), GL(3))

    def test_sp_parity_error_has_offset(self):
        with pytest.raises(GroupParseError) as exc:
            parse_group_expr("Sp(3)")
        assert exc.value.offset == 3

    def test_syntax_error_offset(self):
        with pytest.raises(GroupParseError) as exc:
            parse_group_expr("Z/2 x ??")
        assert exc.value.offset == 6

    def test_trailing_garbage(self):
        with pytest.raises(GroupParseError):
            parse_group_expr("O(3))")

    def test_wreath_needs_prime(self):
        with pytest.raises(GroupParseError):
            parse_group_expr("wr(4, 1)")

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("Z/0", "cyclic order must be >= 1", 2),
            ("GL(0)", "GL rank must be >= 1", 3),
            ("O(0)", "O rank must be >= 1", 2),
            ("SO(0)", "SO rank must be >= 1", 3),
            ("Sp(3)", "Sp argument must be even and >= 2", 3),
            ("S_0", "symmetric group degree must be >= 1", 2),
            ("wr(4, Z/2)", "wreath degree must be prime", 3),
            # the prime is checked before the inner expression is parsed
            ("wr(4, ??)", "wreath degree must be prime", 3),
            ("Gm x GL( 0)", "GL rank must be >= 1", 9),
        ],
    )
    def test_node_error_message_and_offset(self, text, message, offset):
        with pytest.raises(GroupParseError) as exc:
            parse_group_expr(text)
        assert str(exc.value) == f"{message} (byte {offset})"
        assert exc.value.offset == offset

    def test_parenthesised_terms(self):
        assert parse_group_expr("(O(3) x Z/2) x GL(1)") == Product(
            Product(O(3), CyclicZ(2)), GL(1)
        )
        assert parse_group_expr("((Z/2))") == CyclicZ(2)

    def test_unclosed_parenthesis_offset(self):
        with pytest.raises(GroupParseError) as exc:
            parse_group_expr("(O(3)")
        assert str(exc.value) == "expected ')' (byte 5)"
        assert exc.value.offset == 5

    def test_order_one_cyclic_is_trivial(self):
        assert parse_group_expr("Z/1") == Trivial()
        assert parse_group_expr("Z/1 x Gm") == Gm()

    @given(group_exprs())
    def test_roundtrip(self, g):
        assert parse_group_expr(format_group(g)) == g


class TestDimension:
    @pytest.mark.parametrize(
        "text,dim",
        [
            ("GL(3)", 9),
            ("O(5)", 10),
            ("SO(5)", 10),
            ("Sp(4)", 10),
            ("Gm", 1),
            ("G2", 14),
            ("S_6", 0),
            ("wr(2, Z/2)", 0),
            ("GL(2) x Gm", 5),
            ("wr(2, GL(1))", 2),
            ("wr(3, O(2))", 3),
            ("wr(2, GL(1)) x Z/2", 2),
        ],
    )
    def test_values(self, text, dim):
        assert group_dimension(parse_group_expr(text)) == dim

    @given(group_exprs(), st.sampled_from([2, 3, 5]), group_exprs())
    def test_wreath_multiplies_and_product_adds(self, g, p, h):
        assert group_dimension(g) >= 0
        assert group_dimension(Wreath(p, g)) == p * group_dimension(g)
        assert group_dimension(Product(g, h)) == group_dimension(g) + group_dimension(h)


class TestGeneratorBound:
    @pytest.mark.parametrize(
        "text,bound",
        [
            ("O(4)", 10),
            ("Sp(4)", 6),
            ("G2", 35),
            ("GL(7)", 0),
            ("Gm", 0),
            ("SO(7)", 28),
            ("O(2) x Sp(2)", 4),
        ],
    )
    def test_values(self, text, bound):
        assert generator_bound(parse_group_expr(text)) == bound

    def test_zero_only_for_gl_like(self):
        for text in ("O(1)", "SO(1)", "Sp(2)"):
            assert generator_bound(parse_group_expr(text)) > 0

    def test_finite_groups_rejected(self):
        with pytest.raises(UnsupportedError):
            generator_bound(Symmetric(4))


class TestSylowProfile:
    """The p-Sylow subgroup of S_n: one wreath tower of height h per unit of
    the base-p digit of p^h in n."""

    def test_six_at_two(self):
        assert sylow_group(6, 2) == Product(CyclicZ(2), Wreath(2, CyclicZ(2)))

    def test_three_at_three(self):
        assert sylow_group(3, 3) == CyclicZ(3)

    def test_seven_at_three(self):
        assert sylow_group(7, 3) == FiniteAbelian((3, 3))

    def test_group_expr(self):
        assert format_group(sylow_group(6, 2)) == "Z/2 x wr(2, Z/2)"
        assert sylow_group(9, 3) == Wreath(3, CyclicZ(3))
        assert sylow_group(2, 3) == Trivial()

    @given(st.integers(min_value=0, max_value=2000), st.sampled_from([2, 3, 5, 7]))
    def test_digits_reconstruct_n(self, n, p):
        # a tower of height h >= 1 stands for p^h points; the units digit adds none
        heights = Counter()
        for term in product_terms(sylow_group(n, p)):
            h = 1
            while isinstance(term, Wreath):
                term, h = term.inner, h + 1
            if term == CyclicZ(p):
                heights[h] += 1
            elif term != Trivial():
                assert h == 1 and term == FiniteAbelian((p,) * len(term.factors))
                heights[h] += len(term.factors)
        assert sum(m * p**h for h, m in heights.items()) == n - n % p
        assert all(m < p for m in heights.values())

    def test_order_is_the_p_part_of_n_factorial(self):
        # Legendre: v_p(n!) is the sum of floor(n / p^i), i >= 1
        for p in (2, 3, 5, 7, 11):
            for n in range(3001):
                legendre, q = 0, p
                while q <= n:
                    legendre, q = legendre + n // q, q * p
                assert order_valuation(sylow_group(n, p), p) == legendre, (n, p)
        assert order_valuation(sylow_group(10**11, 10**11 + 3), 10**11 + 3) == 0

    @given(finite_group_exprs(), st.sampled_from([2, 3, 5, 7]))
    def test_order_valuation_oracle_matches_the_order(self, g, p):
        order, v = group_order(g), 0
        while order % p == 0:
            order, v = order // p, v + 1
        assert order_valuation(g, p) == v


class TestAbelianization:
    def test_symmetric(self):
        assert abelianization(Symmetric(5)) == CyclicZ(2)

    def test_dihedral(self):
        assert abelian_invariant_factors(Wreath(2, CyclicZ(2))) == (2, 2)

    def test_identity_on_abelian(self):
        assert abelianization(FiniteAbelian((4, 2))) == FiniteAbelian((4, 2))

    def test_product_renormalizes(self):
        g = parse_group_expr("S_3 x Z/3")
        assert abelian_invariant_factors(g) == (6,)

    def test_wreath_tower(self):
        assert abelian_invariant_factors(parse_group_expr("wr(3, wr(3, 1))")) == (3, 3)

    def test_rejects_positive_dimension(self):
        with pytest.raises(ValueError):
            abelianization(Gm())
