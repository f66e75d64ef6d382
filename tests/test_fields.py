import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from chowbg.errors import FieldParseError
from chowbg.fields import (
    FIELD_RULE_ESTABLISHED,
    FIELD_RULE_EXTRAPOLATED,
    apply_cyclotomic_invariants,
    contains_mu,
    cyclotomic_order,
    galois_fixed_exponent,
    invariance_rule_status,
    parse_field,
)
from chowbg.groups import CyclicZ
from chowbg.models import chow_model
from chowbg.tables import polynomial_table
from oracles import (
    cyclotomic_order_by_search,
    galois_exponent_by_search,
    regex_field_parts,
    relabelled,
)


class TestParseField:
    @pytest.mark.parametrize(
        "text,char,kind",
        [
            ("C", 0, "algebraically_closed"),
            ("Qbar", 0, "algebraically_closed"),
            ("Q", 0, "prime_field"),
            ("Q(mu_5)", 0, "cyclotomic_extension"),
            ("F_7", 7, "prime_field"),
            ("F_7(mu_5)", 7, "cyclotomic_extension"),
        ],
    )
    def test_accepted(self, text, char, kind):
        k = parse_field(text)
        assert (k.characteristic, k.kind, k.name) == (char, kind, text)

    @pytest.mark.parametrize("text", ["R", "F_6", "Q(mu_0)", "C(mu_3)", "F_3(mu_3)", ""])
    def test_rejected(self, text):
        with pytest.raises(FieldParseError):
            parse_field(text)

    # texts near the grammar: its tokens, Unicode digits and a superscript
    # that are and are not decimal, whitespace and newlines
    @given(st.lists(st.sampled_from(
        ["C", "Q", "Qbar", "bar", "F_", "F", "_", "(mu_", "(", ")", "mu", "2", "3", "7", "0",
         "\u0663", "\u00b2", " ", "\n", "x"]
    ), max_size=6).map("".join))
    def test_reads_what_the_grammar_regex_matches(self, text):
        parts = regex_field_parts(text)
        try:
            k = parse_field(text)
        except FieldParseError as exc:
            assert (parts is None) == str(exc).startswith("unrecognized field descriptor")
            return
        base, char_digits, mu_digits = parts
        assert k.name == (base if base in ("C", "Qbar") else text.strip())
        assert k.characteristic == (int(char_digits) if char_digits else 0)
        assert k.adjoined == ((int(mu_digits),) if mu_digits else ())


class TestCyclotomicOrder:
    def test_rationals(self):
        assert cyclotomic_order(parse_field("Q"), 5) == 4

    def test_complex(self):
        assert cyclotomic_order(parse_field("C"), 7) == 1

    def test_f2_at_7(self):
        assert cyclotomic_order(parse_field("F_2"), 7) == 3

    def test_adjoined(self):
        assert cyclotomic_order(parse_field("Q(mu_5)"), 5) == 1
        assert cyclotomic_order(parse_field("F_2(mu_7)"), 7) == 1

    def test_finite_field_extensions(self):
        # F_2(mu_3) is F_4 and 4 has order 2 mod 5; F_3(mu_5) is F_81, 81 = 4 mod 7
        assert cyclotomic_order(parse_field("F_2(mu_3)"), 5) == 2
        assert cyclotomic_order(parse_field("F_3(mu_5)"), 7) == 3

    @given(
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.integers(min_value=1, max_value=30),
        st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
    )
    def test_finite_fields_match_search_oracle(self, l, a, p):
        assume(a % l != 0 and p != l)
        k = parse_field(f"F_{l}(mu_{a})")
        expected = cyclotomic_order_by_search(l, a, p)
        assert cyclotomic_order(k, p) == expected
        assert contains_mu(k, p) == (expected == 1)

    def test_p_equals_two_trivial(self):
        assert cyclotomic_order(parse_field("Q"), 2) == 1

    def test_char_p_rejected(self):
        with pytest.raises(ValueError):
            cyclotomic_order(parse_field("F_5"), 5)

    @given(st.sampled_from([3, 5, 7, 11]), st.sampled_from(["Q", "F_2", "F_3", "F_11"]))
    def test_divides_p_minus_one(self, p, name):
        k = parse_field(name)
        if k.characteristic == p:
            return
        assert (p - 1) % cyclotomic_order(k, p) == 0


class TestContainsMu:
    def test_cases(self):
        assert contains_mu(parse_field("Q"), 2)
        assert not contains_mu(parse_field("Q"), 3)
        assert contains_mu(parse_field("Q(mu_3)"), 3)
        assert contains_mu(parse_field("F_7"), 3)  # 3 | 7 - 1
        assert not contains_mu(parse_field("F_7"), 5)
        assert contains_mu(parse_field("F_7(mu_5)"), 5)
        assert contains_mu(parse_field("Qbar"), 360)

    def test_no_fake_eighth_roots(self):
        # Q(mu_4) = Q(i) does not contain the eighth roots of unity
        assert contains_mu(parse_field("Q(mu_4)"), 4)
        assert not contains_mu(parse_field("Q(mu_4)"), 8)


class TestGaloisFixedExponent:
    def test_zero_case(self):
        assert galois_fixed_exponent(5, 3).is_zero()

    def test_ker_p(self):
        assert galois_fixed_exponent(5, 4).exponent == 1

    def test_ker_p_squared(self):
        assert galois_fixed_exponent(3, 6).exponent == 2

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_against_search_oracle(self, p):
        for i in range(1, 51):
            spec = galois_fixed_exponent(p, i)
            assert spec.exponent == galois_exponent_by_search(p, i)


class TestInvariantFiltering:
    def _bz5_table(self, field_name, bound=12):
        return chow_model(CyclicZ(5), parse_field(field_name), bound)

    def test_full_invariants(self):
        table = self._bz5_table("C")
        filtered = apply_cyclotomic_invariants(table, 4)
        nonzero = [r.degree for r in filtered.rows if not r.is_zero()]
        assert nonzero == [0, 4, 8, 12]

    def test_t_one_is_identity(self):
        table = self._bz5_table("C")
        assert apply_cyclotomic_invariants(table, 1) == table

    def test_order_two_subgroup(self):
        table = self._bz5_table("C")
        filtered = apply_cyclotomic_invariants(table, 2)
        nonzero = [r.degree for r in filtered.rows if not r.is_zero()]
        assert nonzero == [0, 2, 4, 6, 8, 10, 12]

    def test_divisor_chain_only_removes(self):
        table = self._bz5_table("C")
        coarse = apply_cyclotomic_invariants(table, 4)
        fine = apply_cyclotomic_invariants(table, 2)
        for a, b in zip(coarse.rows, fine.rows):
            if not a.is_zero():
                assert a == b

    def test_generator_matches_filter(self):
        # the (t, p) generator of the model path is the filtered Z[x]/(p x) table
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for t in (t for t in range(1, p) if (p - 1) % t == 0):
                for bound in range(41):
                    full = polynomial_table([(1, p)], bound, CyclicZ(p))
                    filtered = apply_cyclotomic_invariants(full, t)
                    assert polynomial_table([(t, p)], bound).rows == filtered.rows

    def test_rejects_nondivisor(self):
        with pytest.raises(ValueError):
            apply_cyclotomic_invariants(self._bz5_table("C"), 3)

    def test_rule_status(self):
        assert invariance_rule_status(parse_field("Q"), 5) == FIELD_RULE_ESTABLISHED
        assert invariance_rule_status(parse_field("F_2"), 5) == FIELD_RULE_ESTABLISHED
        assert invariance_rule_status(parse_field("Q(mu_5)"), 5) == FIELD_RULE_ESTABLISHED
        assert invariance_rule_status(parse_field("Q(mu_3)"), 5) == FIELD_RULE_EXTRAPOLATED

    @pytest.mark.parametrize("name", ["Q(mu_1)", "Q(mu_2)"])
    def test_q_with_mu_1_or_mu_2_is_q(self, name):
        # Q(mu_1) = Q(mu_2) = Q: the rule is established there, and the table is Q's
        k, q = parse_field(name), parse_field("Q")
        assert invariance_rule_status(k, 5) == FIELD_RULE_ESTABLISHED
        table = chow_model(CyclicZ(5), k, 8)
        assert table.field == k and relabelled(table, field=q) == chow_model(CyclicZ(5), q, 8)
