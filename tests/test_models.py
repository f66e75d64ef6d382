import pickle
import re
import sys
from collections import Counter
from itertools import product as sequences
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chowbg import models
from chowbg._intmath import is_prime
from chowbg.errors import UnsupportedError
from chowbg.fields import contains_mu, parse_field, require_mu
from chowbg.graded import localize, mod_p_dimension, to_table
from chowbg.groups import (
    SO,
    CyclicZ,
    FiniteAbelian,
    O,
    Product,
    Symmetric,
    Trivial,
    Wreath,
    parse_group_expr,
    product_terms,
    sylow_group,
)
from chowbg.models import (
    chow_integral_symmetric,
    chow_model,
    chow_model_localized,
    chow_model_mod_p,
    chow_symmetric_local,
    chow_symmetric_sylow_bound,
    chow_wreath,
    localize_table,
    mod_p_table,
)
from chowbg.tables import (
    EXACT,
    INTEGRAL,
    UPPER_BOUND,
    ChowTable,
    Localization,
    polynomial_table,
)
from oracles import (
    abelian_invariant_factors,
    cyclotomic_company,
    from_counts_localize_table,
    from_counts_mod_p_table,
    group_order,
    integral_cohomology,
    kunneth_factors,
    labelled_kunneth_table,
    orthogonal_cohomology,
    pairwise_kunneth_table,
    relabelled,
    sylow_group_by_towers,
    symmetric_local_by_kernel,
    symmetric_rows,
    truncated_by_dict,
)
from strategies import finite_group_exprs, graded_groups, group_exprs, isomorphic_spellings

C = parse_field("C")
Q = parse_field("Q")
KUNNETH_FIELDS = [parse_field(k) for k in ("C", "Q", "Q(mu_3)", "F_2", "F_7", "F_2(mu_3)")]


def model(text, field=C, bound=10):
    return chow_model(parse_group_expr(text), field, bound)


def row_orders(row):
    return (row.free_rank, tuple(sorted(row.torsion)))


def row_orders_list(table):
    return [(r.free_rank, r.torsion) for r in table.rows]


class TestDispatch:
    def test_trivial(self):
        t = model("1", bound=4)
        assert row_orders(t.rows[0]) == (1, ())
        assert all(r.is_zero() for r in t.rows[1:])

    def test_bz5_over_q(self):
        t = model("Z/5", Q, bound=12)
        nonzero = {r.degree: row_orders(r) for r in t.rows if not r.is_zero()}
        assert nonzero == {0: (1, ()), 4: (0, (5,)), 8: (0, (5,)), 12: (0, (5,))}

    def test_z2_times_gm_degree_1(self):
        t = model("Z/2 x Gm", bound=3)
        assert row_orders(t.rows[1]) == (1, (2,))

    def test_o3_any_odd_characteristic(self):
        for name in ("C", "Q", "F_3", "F_7(mu_5)"):
            t = model("O(3)", parse_field(name), bound=2)
            assert row_orders(t.rows[2]) == (1, (2,))

    def test_o3_char_2_rejected(self):
        with pytest.raises(UnsupportedError):
            model("O(3)", parse_field("F_2"))

    def test_g2_table_rejected(self):
        with pytest.raises(UnsupportedError):
            model("G2")

    def test_so_even_rejected(self):
        with pytest.raises(UnsupportedError):
            model("SO(6)")

    def test_composite_cyclic_needs_roots(self):
        with pytest.raises(UnsupportedError):
            model("Z/4", Q)

    def test_product_of_invariant_paths_rejected(self):
        with pytest.raises(UnsupportedError):
            model("Z/5 x Z/5", Q)

    def test_wreath_needs_roots_of_unity(self):
        with pytest.raises(UnsupportedError):
            model("wr(3, 1)", Q)

    def test_char_divides_order_rejected(self):
        with pytest.raises(UnsupportedError):
            model("Z/5", parse_field("F_5"))

    def test_abelian_over_finite_field_with_roots(self):
        # mu_5 lives in F_11, so the full symmetric algebra applies
        t = model("Z/5", parse_field("F_11"), bound=6)
        assert [row_orders(r) for r in t.rows[1:]] == [(0, (5,))] * 6

    def test_extrapolated_flag(self):
        t = model("Z/5", parse_field("Q(mu_3)"), bound=8)
        assert "extrapolated-field" in t.provenance
        assert model("Z/5", Q, bound=8).provenance == (EXACT,)

    def test_memoized(self):
        a = chow_model(CyclicZ(7), C, 9)
        b = chow_model(CyclicZ(7), C, 9)
        assert a is b

    @settings(max_examples=40, deadline=None)
    @given(group_exprs(max_terms=2))
    def test_degree_zero_row_when_supported(self, g):
        from chowbg._intmath import is_prime_power

        try:
            t = chow_model(g, C, 4)
        except UnsupportedError:
            return
        assert row_orders(t.rows[0]) == (1, ())
        assert all(is_prime_power(pe) for r in t.rows for pe in r.torsion)

    @settings(max_examples=60, deadline=None)
    @given(group_exprs(), st.integers(min_value=0, max_value=5))
    def test_kunneth_matches_labelled_reference(self, g, bound):
        assume(isinstance(g, (Product, FiniteAbelian)))
        try:
            factors = [chow_model(h, C, bound) for h in kunneth_factors(g)]
        except UnsupportedError:
            return
        assert chow_model(g, C, bound).rows == labelled_kunneth_table(factors).rows

    @settings(max_examples=80, deadline=None)
    @given(group_exprs(), st.sampled_from(KUNNETH_FIELDS), st.integers(min_value=0, max_value=5))
    def test_single_fold_matches_pairwise_fold(self, g, k, bound):
        try:
            factors = [chow_model(h, k, bound) for h in kunneth_factors(g)]
        except UnsupportedError:
            # a failing term, or a cyclic factor failing on its own, fails the whole group
            with pytest.raises(UnsupportedError):
                chow_model(g, k, bound)
            return
        try:
            table = chow_model(g, k, bound)
        except UnsupportedError:
            # only a finite abelian group can fail when each cyclic factor alone
            # is supported: a field lacking its roots of unity
            assert any(isinstance(h, FiniteAbelian) for h in _product_terms(g))
            return
        expected = pairwise_kunneth_table(factors)
        assert (table.rows, table.provenance) == (expected.rows, expected.provenance)
        assert (table.group, table.field, table.localization) == (g, k, INTEGRAL)

    def test_one_polynomial_table_per_memo_miss(self, monkeypatch):
        calls = _count_builds(monkeypatch)
        chow_model.cache_clear()
        for text in ("wr(2, wr(2, Z/2)) x GL(2) x Z/3", "wr(2, Z/2) x O(3)", "Z/5 x S_3"):
            model(text, bound=6)
        # the wreath tables wr(2, Z/2) and wr(2, wr(2, Z/2)) are built once each
        built = (len(calls["polynomial_table"]), len(calls["chow_wreath"]))
        assert built == (4, 2) and sum(built) == chow_model.cache_info().misses

    def test_shared_wreath_term_built_once(self, monkeypatch):
        calls = _count_builds(monkeypatch)
        chow_model.cache_clear()
        model("wr(2, Z/2) x GL(1)", bound=6)
        model("wr(2, Z/2) x O(2)", bound=6)
        assert len(calls["chow_wreath"]) == 1

    def test_a_finite_abelian_group_is_decided_on_its_exponent(self, monkeypatch):
        # every invariant factor divides the first, so mu_5 in k answers for all four
        asked = []
        monkeypatch.setattr(models, "contains_mu", lambda k, m: asked.append(m) or contains_mu(k, m))
        chow_model.cache_clear()
        table = model("Z/5 x Z/5 x Z/5 x Z/5", bound=4)
        assert asked == [5] and table.group == FiniteAbelian((5, 5, 5, 5))

    def test_negative_bound_gets_one_message(self):
        for text in ("Z/3", "GL(2)", "wr(2, Z/2)"):
            with pytest.raises(ValueError, match="one row per degree"):
                chow_model(parse_group_expr(text), C, -1)
        for g in (CyclicZ(3), Symmetric(3)):
            with pytest.raises(ValueError, match="one row per degree"):
                chow_model_localized(g, C, -1, 3)
            with pytest.raises(ValueError, match="one row per degree"):
                chow_model_mod_p(g, C, -1, 3)
        with pytest.raises(ValueError, match="one row per degree"):
            chow_symmetric_sylow_bound(4, 2, -1)

    def test_cache_consistent_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        chow_model.cache_clear()
        g = parse_group_expr("wr(2, Z/4)")
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: chow_model(g, C, 8), range(32)))
        assert all(t == results[0] for t in results)


def _count_builds(monkeypatch):
    """Record the arguments of every ``polynomial_table`` and wreath build
    (``chow_wreath``, which the memo calls) that ``chowbg.models`` makes, by
    the name of the function."""
    calls = {"polynomial_table": [], "chow_wreath": []}
    for name, build in (("polynomial_table", polynomial_table), ("chow_wreath", chow_wreath)):

        def counting(*args, name=name, build=build):
            calls[name].append(args)
            return build(*args)

        monkeypatch.setattr(f"chowbg.models.{name}", counting)
    return calls


def _product_terms(g):
    return _product_terms(g.left) + _product_terms(g.right) if isinstance(g, Product) else [g]


class TestWreath:
    def test_base_case_is_polynomial_ring(self):
        for p in (2, 3, 5):
            t = chow_wreath(p, model("1", bound=10))
            assert row_orders(t.rows[0]) == (1, ())
            assert [row_orders(r) for r in t.rows[1:]] == [(0, (p,))] * 10

    def test_wreath_of_z2(self):
        t = model("wr(2, Z/2)", bound=4)
        assert row_orders(t.rows[1]) == (0, (2, 2))
        assert row_orders(t.rows[2]) == (0, (2, 2, 4))

    def test_wreath_of_trivial_equals_cyclic(self):
        for p in (2, 3, 5):
            assert model(f"wr({p}, 1)").rows == model(f"Z/{p}").rows

    def test_degree_one_is_abelianization(self):
        g = parse_group_expr("wr(2, wr(2, Z/2))")
        t = chow_model(g, C, 2)
        assert tuple(sorted(t.rows[1].torsion)) == abelian_invariant_factors(g)

    def test_upper_bound_inner_rejected(self):
        with pytest.raises(UnsupportedError, match="exact inner table"):
            chow_wreath(2, chow_symmetric_sylow_bound(4, 2, 3))

    def test_local_or_mod_p_inner_rejected(self):
        # the cyclic power of a view is not the view of the cyclic power's table
        t = model("Z/6", bound=6)
        for p, inner in ((2, localize_table(t, 2)), (3, mod_p_table(t, 3))):
            with pytest.raises(UnsupportedError, match="^wreath construction needs an integral"):
                chow_wreath(p, inner)

    def test_group_metadata(self):
        t = model("wr(3, Z/3)", bound=2)
        assert t.group == Wreath(3, CyclicZ(3))

    def test_dihedral_mod_2_dimensions_match_monomial_count(self):
        # the dihedral ring is generated by two degree-1 classes with
        # vanishing product and one degree-2 class, so the mod-2 dimension
        # in degree d counts monomials y1^a c^k and y2^b c^k
        t = mod_p_table(model("wr(2, Z/2)", bound=12), 2)
        for d in range(13):
            single = len([a for a in range(d + 1) if (d - a) % 2 == 0])
            overlap = 1 if d % 2 == 0 else 0
            assert t.rows[d].free_rank == 2 * single - overlap


class TestSymmetricLocal:
    def test_s3_at_3(self):
        t = chow_symmetric_local(3, 3, C, 6)
        nonzero = {r.degree: row_orders(r) for r in t.rows if not r.is_zero()}
        assert nonzero == {0: (1, ()), 2: (0, (3,)), 4: (0, (3,)), 6: (0, (3,))}

    def test_s2_at_2(self):
        t = chow_symmetric_local(2, 2, C, 5)
        assert [row_orders(r) for r in t.rows[1:]] == [(0, (2,))] * 5

    def test_s5_at_3(self):
        t = chow_symmetric_local(5, 3, C, 4)
        nonzero = {r.degree for r in t.rows if not r.is_zero()}
        assert nonzero == {0, 2, 4}

    def test_trivial_sylow(self):
        t = chow_symmetric_local(4, 5, C, 6)
        assert all(r.is_zero() for r in t.rows[1:])

    def test_concentration(self):
        for n, p in ((3, 3), (5, 3), (6, 5), (7, 5), (8, 7)):
            t = chow_symmetric_local(n, p, C, 12)
            for r in t.rows[1:]:
                if not r.is_zero():
                    assert r.degree % (p - 1) == 0

    def test_support_matches_scalar_invariant_oracle(self):
        # brute-force check of which monomial degrees every unit scalar fixes
        from oracles import scalar_invariant_degrees

        for n, p in ((2, 2), (3, 3), (5, 3), (7, 5)):
            t = chow_symmetric_local(n, p, C, 12)
            support = [r.degree for r in t.rows if not r.is_zero()]
            assert support == scalar_invariant_degrees(p, 12)

    def test_rows_match_scalar_invariant_oracle(self):
        # full rows, not only the support: one Z/p per scalar-invariant degree
        for p in (2, 3, 5, 7, 11, 13):
            for n in range(1, 2 * p):
                for bound in range(41):
                    t = chow_symmetric_local(n, p, C, bound)
                    expected = symmetric_rows([p] if n >= p else [], bound)
                    assert row_orders_list(t) == expected
                    assert (t.group, t.field, t.localization) == (
                        Symmetric(n),
                        C,
                        Localization("at_prime", p),
                    )

    def test_negative_bound_rejected(self):
        for n in (2, 3):
            with pytest.raises(ValueError, match="one row per degree"):
                chow_symmetric_local(n, 3, C, -1)

    def test_field_independent(self):
        fields = [C, parse_field("Q(mu_3)"), parse_field("F_2(mu_3)"), parse_field("F_7")]
        tables = [chow_symmetric_local(4, 3, k, 8) for k in fields]
        assert all(t.rows == tables[0].rows for t in tables)

    def test_non_cyclic_sylow_rejected(self):
        with pytest.raises(UnsupportedError):
            chow_symmetric_local(6, 3, C, 4)
        with pytest.raises(UnsupportedError):
            chow_symmetric_local(4, 2, C, 4)

    def test_char_p_rejected(self):
        with pytest.raises(UnsupportedError):
            chow_symmetric_local(3, 3, parse_field("F_3"), 4)

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            chow_symmetric_local(0, 3, C, 4)

    def test_localized_dispatch(self):
        t = chow_model_localized(parse_group_expr("S_5"), Q, 4, 3)
        assert t.rows == chow_symmetric_local(5, 3, Q, 4).rows


class TestSylowBound:
    def test_s4_at_2_degree_1(self):
        t = chow_symmetric_sylow_bound(4, 2, 4)
        assert row_orders(t.rows[1]) == (0, (2, 2))

    def test_s3_at_3_is_bz3(self):
        t = chow_symmetric_sylow_bound(3, 3, 8)
        assert t.rows == model("Z/3", bound=8).rows

    def test_s6_at_2_degree_1(self):
        t = chow_symmetric_sylow_bound(6, 2, 3)
        assert row_orders(t.rows[1]) == (0, (2, 2, 2))

    def test_provenance(self):
        t = chow_symmetric_sylow_bound(4, 2, 3)
        assert UPPER_BOUND in t.provenance

    def test_dominates_local_table(self):
        from collections import Counter

        for n, p in ((3, 2), (3, 3), (5, 3), (6, 5)):
            local = chow_symmetric_local(n, p, C, 8)
            bound = chow_symmetric_sylow_bound(n, p, 8)
            for lr, br in zip(local.rows, bound.rows):
                assert lr.free_rank <= br.free_rank
                missing = Counter(lr.torsion) - Counter(br.torsion)
                assert not missing


class TestSylowTransfer:
    """The transfer makes the p-local table of S_n a split summand of the
    table of its p-Sylow subgroup: row by row, a sub-multiset of it."""

    @pytest.mark.parametrize("bound", [0, 6, 14])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_local_rows_are_sub_multisets_of_the_sylow_rows(self, p, bound):
        from collections import Counter

        for n in range(1, 2 * p):
            local = chow_symmetric_local(n, p, C, bound)
            sylow = chow_symmetric_sylow_bound(n, p, bound, C)
            assert len(local.rows) == len(sylow.rows) == bound + 1
            for lr, sr in zip(local.rows, sylow.rows):
                assert lr.free_rank <= sr.free_rank, (n, lr.degree)
                assert Counter(dict(lr.counts)) <= Counter(dict(sr.counts)), (n, lr.degree)


class TestSymmetricIntegral:
    def test_s3_low_degrees(self):
        t = chow_integral_symmetric(3, 4)
        assert [row_orders(r) for r in t.rows] == [
            (1, ()),
            (0, (2,)),
            (0, (2, 3)),
            (0, (2,)),
            (0, (2, 3)),
        ]

    def test_s2_degree_3(self):
        assert row_orders(chow_integral_symmetric(2, 3).rows[3]) == (0, (2,))

    def test_s1(self):
        t = chow_integral_symmetric(1, 5)
        assert all(r.is_zero() for r in t.rows[1:])

    def test_rows_match_summed_local_oracle(self):
        for n in (1, 2, 3):
            for bound in range(41):
                t = chow_integral_symmetric(n, bound, Q)
                assert row_orders_list(t) == symmetric_rows([p for p in (2, 3) if p <= n], bound)
                assert (t.group, t.field, t.localization) == (Symmetric(n), Q, INTEGRAL)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="one row per degree"):
            chow_integral_symmetric(3, -1)

    def test_s4_rejected(self):
        with pytest.raises(UnsupportedError):
            chow_integral_symmetric(4, 4)

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            chow_integral_symmetric(0, 4)

    @pytest.mark.parametrize("k", [C, parse_field("F_2")], ids=["C", "F_2"])
    @pytest.mark.parametrize("warm", [None, 9], ids=["cold", "warm"])
    @pytest.mark.parametrize("bound", [-1, 0, 4, 9])
    @pytest.mark.parametrize("n", range(-1, 6))
    def test_equals_chow_model_of_symmetric(self, n, bound, warm, k):
        def counted(call):  # the outcome and the cache_info() counts it moved
            chow_model.cache_clear()
            if warm and n >= 1:
                _outcome(lambda: chow_model(Symmetric(n), k, warm))
            before = chow_model.cache_info()
            outcome = _outcome(call)
            after = chow_model.cache_info()
            return outcome, tuple(map(int.__sub__, after, before))

        wrapper = counted(lambda: chow_integral_symmetric(n, bound, k))
        if n < 1:  # refused before Symmetric(n), which refuses n < 1 with its own text
            assert wrapper == ((ValueError, "n must be >= 1"), (0, 0, 0))
            with pytest.raises(ValueError, match="^symmetric group degree must be >= 1$"):
                Symmetric(n)
        else:
            assert wrapper == counted(lambda: chow_model(Symmetric(n), k, bound))

    def test_memoized_with_dispatch(self):
        chow_model.cache_clear()  # the stored table is the one of bound 4
        assert chow_integral_symmetric(3, 4, Q) is chow_model(Symmetric(3), Q, 4)

    def test_small_characteristic_rejected(self):
        with pytest.raises(UnsupportedError):
            chow_model(Symmetric(3), parse_field("F_2"), 4)

    def test_via_dispatch(self):
        assert model("S_3", bound=4).rows == chow_integral_symmetric(3, 4).rows


F_2, F_3 = parse_field("F_2"), parse_field("F_3")
TAME = "is only established in characteristic prime to"
MU = "needs the roots of unity of order"


class TestFieldGuards:
    """Each field hypothesis is checked by one guard, whichever entry point
    reaches it: tameness (char k prime to the order) and mu_p in k."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: model("O(3)", F_2), f"CH^*(BO(3)) {TAME} 2"),
            (lambda: model("Z/6", F_3), f"B(Z/6) {TAME} 6"),
            (lambda: model("wr(3, Z/3)", Q), f"wr(3, -) {MU} 3"),
            (lambda: chow_wreath(3, model("Z/3", Q)), f"wr(3, -) {MU} 3"),
            (lambda: chow_symmetric_sylow_bound(3, 3, 4, Q), f"the 3-Sylow table of S_3 {MU} 3"),
            (lambda: chow_symmetric_sylow_bound(3, 3, 4, F_3), f"the 3-Sylow table of S_3 {TAME} 3"),
            (lambda: model("S_3", F_3), f"the 3-local table of S_3 {TAME} 3"),
            (lambda: chow_symmetric_local(3, 3, F_3, 4), f"the 3-local table of S_3 {TAME} 3"),
            (
                lambda: chow_model_localized(Symmetric(3), F_3, 4, 3),
                f"the 3-local table of S_3 {TAME} 3",
            ),
        ],
        ids=[
            "O(3)/F_2",
            "Z6/F_3",
            "wreath/Q",
            "chow_wreath/Q",
            "sylow/Q",
            "sylow/F_3",
            "S_3/F_3",
            "S_3-local/F_3",
            "S_3-localized/F_3",
        ],
    )
    def test_guard_fires(self, build, message):
        with pytest.raises(UnsupportedError, match="^" + re.escape(message)):
            build()

    def test_integral_symmetric_raises_at_first_noncyclic_prime(self):
        # the primes are produced lazily, so a huge n stops at p = 2
        with pytest.raises(UnsupportedError, match="^the 2-Sylow subgroup of S_10000000 is not cyclic"):
            model("S_10000000", C)

    @pytest.mark.parametrize(
        "build, start",
        [
            (lambda: chow_model(O(10**5000), F_2, 2), "CH^*(BO(10000000000000000000... (5001 characters)))"),
            (lambda: chow_model(SO(10**5000), F_2, 2), "CH^*(BSO(10000000000000000000... (5001 characters)))"),
            (lambda: chow_model(Symmetric(10**5000), C, 2), "the 2-Sylow subgroup of S_10000000000000000000... (5001 characters) is not cyclic"),
            (lambda: chow_model(Symmetric(10**5000), F_2, 2), "the 2-local table of S_10000000000000000000... (5001 characters)"),
            (lambda: chow_symmetric_local(10**5000, 3, C, 2), "the 3-Sylow subgroup of S_10000000000000000000... (5001 characters)"),
            (lambda: chow_symmetric_sylow_bound(10**5000, 3, 2, Q), "the 3-Sylow table of S_10000000000000000000... (5001 characters)"),
        ],
        ids=["O/F_2", "SO/F_2", "S_n/C", "S_n/F_2", "S_n-local/C", "sylow/Q"],
    )  # fmt: skip
    def test_refusals_quote_numbers_past_the_str_limit(self, build, start):
        # str() of a 5,001-digit number raises ValueError: the texts use echo_int
        with pytest.raises(UnsupportedError) as info:
            build()
        assert str(info.value).startswith(start) and len(str(info.value)) < 300

    def test_symmetric_local_equals_localized_integral(self):
        fields = [parse_field(k) for k in ("C", "Q", "Q(mu_3)", "F_2", "F_3", "F_5", "F_7(mu_5)")]
        compared = 0
        for n in (1, 2, 3):
            for p in (2, 3, 5, 7):
                for k in fields:
                    for bound in range(9):
                        try:
                            local = chow_model_localized(Symmetric(n), k, bound, p)
                            integral = chow_model(Symmetric(n), k, bound)
                        except UnsupportedError:
                            continue
                        assert local == localize_table(integral, p)
                        compared += 1
        assert compared == 567


class TestLocalizations:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @given(graded_groups())
    def test_localize_matches_labelled_reference(self, p, g):
        assert localize_table(to_table(g), p).rows == to_table(localize(g, p)).rows

    @pytest.mark.parametrize("p", [2, 3, 5])
    @given(graded_groups())
    def test_mod_p_matches_labelled_reference(self, p, g):
        t = mod_p_table(to_table(g), p)
        assert [r.free_rank for r in t.rows] == [
            mod_p_dimension(g, p, d) for d in range(g.valid_through + 1)
        ]
        assert all(not r.counts for r in t.rows)

    @settings(max_examples=150, deadline=None)
    @given(
        group_exprs(),
        st.sampled_from([2, 3, 5, 7]),
        st.integers(min_value=0, max_value=12),
    )
    def test_views_match_from_counts_references(self, g, p, bound):
        try:
            integral = chow_model(g, C, bound)
        except UnsupportedError:
            assume(False)
        local = localize_table(integral, p)
        reduced = mod_p_table(integral, p)
        views = [
            (local, from_counts_localize_table(integral, p)),
            (reduced, from_counts_mod_p_table(integral, p)),
        ]
        for view, reference in views:
            assert view == reference  # rows, bound and every metadata field
            assert hash(view) == hash(reference)
            assert [hash(r) for r in view.rows] == [hash(r) for r in reference.rows]
        # an all-p-primary table is its own local table, up to the localization
        p_primary = all(q % p == 0 for row in integral.rows for q, _ in row.counts)
        assert (local.rows == integral.rows) == p_primary
        if p_primary:
            assert local == relabelled(integral, localization=Localization("at_prime", p))
        # a torsion-free table is its own mod-p table, up to the localization
        if all(not row.counts for row in integral.rows):
            assert reduced.rows == integral.rows
            assert reduced == relabelled(integral, localization=Localization("mod_p", p))

    def test_localize_table(self):
        t = localize_table(model("S_3", bound=4), 2)
        assert [row_orders(r) for r in t.rows[1:]] == [(0, (2,))] * 4

    def test_mod_p_table(self):
        t = mod_p_table(model("S_3", bound=4), 2)
        assert [r.free_rank for r in t.rows] == [1, 1, 1, 1, 1]
        assert all(not r.torsion for r in t.rows)

    def test_mod_p_dispatch(self):
        t = chow_model_mod_p(parse_group_expr("O(3)"), C, 3, 2)
        assert [r.free_rank for r in t.rows] == [1, 1, 2, 3]


class TestCharacterCheck:
    @pytest.mark.parametrize(
        "text",
        [
            *("S_2", "S_3", "Z/4 x Z/2", "wr(2, Z/2)", "wr(3, 1)", "Z/6", "wr(2, wr(2, 1))"),
            *("O(1)", "SO(1)", "wr(2, O(1))", "O(1) x Z/3"),
        ],
    )
    def test_degree_one_equals_abelianization(self, text):
        g = parse_group_expr(text)
        t = chow_model(g, C, 1)
        assert tuple(sorted(t.rows[1].torsion)) == tuple(
            sorted(abelian_invariant_factors_elementary(g))
        )
        assert t.rows[1].free_rank == 0

    @pytest.mark.parametrize("p, top", [(2, 64), (3, 27)])
    def test_sylow_towers_up_to_height_six(self, p, top):
        # CH^1 is the character group, whatever the cyclic power does above it
        for n in range(1, top + 1):
            g = sylow_group(n, p)
            row = chow_model(g, C, 2).rows[1]
            assert row.free_rank == 0
            assert sorted(row.torsion) == sorted(abelian_invariant_factors_elementary(g))

    @settings(max_examples=150, deadline=None)
    @given(finite_group_exprs())
    def test_degree_one_is_the_dual_of_the_abelianization(self, g):
        # CH^1 BG is the character group Hom(G, Gm) = Hom(G^ab, Q/Z) for finite G
        try:
            expected = abelian_invariant_factors_elementary(g)  # refuses infinite groups
            row = chow_model(g, C, 1).rows[1]
        except (ValueError, UnsupportedError):
            assume(False)
        assert row.free_rank == 0
        assert sorted(row.torsion) == sorted(expected)


class TestFiniteGroupInvariants:
    @settings(max_examples=150, deadline=None)
    @given(finite_group_exprs(), st.integers(min_value=0, max_value=12))
    def test_positive_degrees_are_torsion_dividing_the_order(self, g, bound):
        # CH^i BG for finite G and i > 0 is killed by |G| (transfer to the trivial group)
        try:
            t = chow_model(g, C, bound)
        except UnsupportedError:
            assume(False)
        order = group_order(g)
        assert t.rows[0].free_rank == 1 and not t.rows[0].counts
        for row in t.rows[1:]:
            assert row.free_rank == 0
            assert all(order % q == 0 for q, _ in row.counts)


def _needed_roots(g):
    """The m whose roots of unity some term of g uses: the orders of its
    finite abelian factors and its wreath degrees, inside wreaths too."""
    needed, stack = set(), [g]
    while stack:
        for t in product_terms(stack.pop()):
            if isinstance(t, Wreath):
                needed.add(t.p)
                stack.append(t.inner)
            elif isinstance(t, (CyclicZ, FiniteAbelian)):
                needed.update((t.n,) if isinstance(t, CyclicZ) else t.factors)
    return needed


@st.composite
def _spellings_over_fields_with_roots(draw):
    """An isomorphic pair of spellings and a field that contains every mu_m
    the group needs: C, Qbar, Q(mu_top) or F_l(mu_top), top the lcm of the m."""
    g, text = draw(isomorphic_spellings())
    needed = _needed_roots(g)
    top = lcm(*needed)
    adjoin = f"(mu_{top})" if top > 2 else ""
    fields = [parse_field(t) for t in ("C", "Qbar", f"Q{adjoin}")]
    fields += [parse_field(f"F_{l}{adjoin}") for l in (2, 3, 5, 7, 11, 13) if top % l]
    k = draw(st.sampled_from([k for k in fields if all(contains_mu(k, m) for m in needed)]))
    return g, text, k


class TestIsomorphicSpellings:
    """ROADMAP item 1's metamorphic relation where it holds today: two
    spellings of one group give equal rows or both an UnsupportedError over
    any field that contains the roots of unity the group needs.  Over a field
    without some mu_p the cyclotomic route of a single Z/p still tells
    coprime spellings apart (item 1's open coprime step), so those fields are
    not drawn; four such pairs over Q are strict xfails, for that step to flip."""

    @settings(max_examples=150, deadline=None)
    @given(_spellings_over_fields_with_roots(), st.integers(min_value=0, max_value=6))
    def test_equal_rows_or_both_refused(self, case, bound):
        g, text, k = case
        assert _rows_or_refusal(g, k, bound) == _rows_or_refusal(parse_group_expr(text), k, bound)

    @pytest.mark.parametrize("k", ["C", "Qbar", "F_7(mu_3)", "Q(mu_3)"])
    @pytest.mark.parametrize("z2", ["O(1)", "S_2", "wr(2, 1)"])
    def test_z2_spellings_times_gl2_and_z3(self, z2, k):
        k = parse_field(k)
        expected = chow_model(parse_group_expr("Z/6 x GL(2)"), k, 8).rows
        assert chow_model(parse_group_expr(f"{z2} x GL(2) x Z/3"), k, 8).rows == expected

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: over a field without mu_p the cyclotomic (t, p) route of Z/p "
        "next to another torsion term prints an exact table, while Z/2p is refused",
    )
    @pytest.mark.parametrize(
        "text, other",
        [
            ("Z/3 x O(1)", "Z/6"),
            ("Z/3 x S_2", "Z/6"),
            ("Z/3 x wr(2, 1)", "Z/6"),
            ("Z/5 x wr(2, 1)", "Z/10"),
        ],
    )
    def test_spellings_over_a_field_without_mu_p(self, text, other):
        k = parse_field("Q")
        assert _rows_or_refusal(parse_group_expr(text), k, 3) == _rows_or_refusal(
            parse_group_expr(other), k, 3
        )


# the terms and fields of the exhaustive scan: every sequence of 2 or 3 atoms
# over each field, at bound 4
COMPANY_ATOMS = (
    "Z/2", "Z/3", "Z/5", "O(1)", "O(2)", "S_2", "S_3", "GL(1)",
    "wr(2, 1)", "wr(2, Z/2)", "wr(2, Z/3)", "wr(2, S_3)",
)  # fmt: skip
COMPANY_FIELDS = ("C", "Q", "Q(mu_3)", "Q(mu_5)", "F_5", "F_7")


class TestCyclotomicCompany:
    """ROADMAP item 1's same-prime step.  Over a field without mu_p (p odd) a
    Z/p takes the cyclotomic ``(t, p)`` route, established for a single Z/p
    only; next to another p-torsion source, a second Z/p or an S_3, the
    request is refused before any table is built."""

    def test_every_ordering_agrees_and_a_cyclotomic_term_has_no_company(self):
        chow_model.cache_clear()
        outcomes = {}  # (field, sorted terms) -> the table's series, or the refusal type
        for text in COMPANY_FIELDS:
            k = parse_field(text)
            for terms in (t for n in (2, 3) for t in sequences(COMPANY_ATOMS, repeat=n)):
                g = parse_group_expr(" x ".join(terms))
                try:
                    table = chow_model(g, k, 4)
                except UnsupportedError:
                    outcome = UnsupportedError
                else:
                    outcome = (table.free, table.levels, table.provenance)
                    sources, routed = cyclotomic_company(g, k)
                    assert all(sources[p] == 1 for p in routed), (text, terms, sources, routed)
                assert outcomes.setdefault((text, tuple(sorted(terms))), outcome) == outcome, (text, terms)
        chow_model.cache_clear()
        answered = sum(outcome is not UnsupportedError for outcome in outcomes.values())
        # 2,372 at the parent of the same-prime step; the coprime step answers more
        assert (len(outcomes), answered) == (2652, 2074)

    @pytest.mark.parametrize(
        "text, k, sources, routed",
        [
            ("wr(2, Z/3)", "Q", {2: 1, 3: 2}, {3}),
            ("Z/3 x S_3", "Q", {2: 1, 3: 2}, {3}),
            ("Z/3 x S_3", "Q(mu_3)", {2: 1, 3: 2}, set()),
            ("Z/5 x wr(3, S_3)", "F_7", {2: 3, 3: 4, 5: 1}, {5}),
            ("Z/15", "Q", {3: 1, 5: 1}, set()),
            ("Z/3 x GL(2)", "F_3", {3: 1}, set()),
        ],
    )
    def test_the_company_oracle(self, text, k, sources, routed):
        assert cyclotomic_company(parse_group_expr(text), parse_field(k)) == (sources, routed)


def _rows_or_refusal(g, k, bound):
    try:
        return chow_model(g, k, bound).rows
    except UnsupportedError:
        return UnsupportedError


class TestCycleMap:
    """The cycle map CH^i(BG) -> H^{2i}(BG; Z) over C, against the additive
    cohomology of ``oracles.integral_cohomology``, for products of finite
    cyclic groups with GL, Gm and Sp factors.  With at most two invariant
    factors every Tor term lands in an odd degree, so CH^i has the orders and
    the free rank of H^{2i}; a third one puts a Tor term in H^4.  For O(n) and
    SO(2n+1), against ``oracles.orthogonal_cohomology``: the free rank of CH^i
    is that of H^{2i}, and all torsion has order 2.  That CH^i has at most the
    Z/2 count of H^{2i} would need the cycle map to be injective for these
    groups, with a quoted source, so it is not checked."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=2, max_value=12), max_size=2),
        st.lists(st.sampled_from(["Gm", "GL(1)", "GL(2)", "GL(3)", "Sp(2)", "Sp(4)"]), max_size=2),
        st.integers(min_value=0, max_value=8),
    )
    def test_chow_groups_are_the_even_cohomology(self, orders, classical, bound):
        g = parse_group_expr(" x ".join([f"Z/{m}" for m in orders] + classical) or "1")
        h = integral_cohomology(g, 2 * bound)
        rows = [(row.free_rank, Counter(row.torsion)) for row in chow_model(g, C, bound).rows]
        assert rows == h[::2]

    @pytest.mark.parametrize("p", [2, 3])
    def test_a_third_invariant_factor_adds_one_tor_class_to_h4(self, p):
        g = parse_group_expr(f"Z/{p} x Z/{p} x Z/{p}")
        ch2, (rank, h4) = chow_model(g, C, 2).row(2), integral_cohomology(g, 4)[4]
        assert (ch2.free_rank, rank) == (0, 0) and Counter(ch2.torsion) == Counter({p: 6})
        assert h4 == Counter({p: 7})  # the one more is Tor(H^3(B(Z/p)^2), H^2(BZ/p))

    @pytest.mark.parametrize("text", [*(f"O({n})" for n in range(1, 7)), "SO(1)", "SO(3)", "SO(5)", "SO(7)"])
    def test_orthogonal_chow_groups_have_the_rational_ranks_and_order_two(self, text):
        # the paper's O(n) and SO(2n+1): CH^i has the free rank r_{2i} of H^{2i}, and every
        # class of 2 c_odd = 0 has order 2, as all torsion of H^*(BG; Z) does
        g = parse_group_expr(text)
        h = orthogonal_cohomology(g, 20)
        assert all(t >= 0 for _, t in h)
        rows = chow_model(g, C, 10).rows
        assert [row.free_rank for row in rows] == [r for r, _ in h[::2]]
        assert all(set(row.torsion) <= {2} for row in rows)

    def test_the_orthogonal_oracle_and_its_rank_check(self):
        # H^*(BO(1); Z) = Z[x]/(2x), deg x = 2; H^*(BSO(3); Z) has Z/2 in degrees 3 and 6
        # (W_3 and its square) and Z in degree 4 (p_1)
        assert orthogonal_cohomology(O(1), 6) == [(1, 0), (0, 0), (0, 1), (0, 0), (0, 1), (0, 0), (0, 1)]
        assert orthogonal_cohomology(SO(3), 6) == [(1, 0), (0, 0), (0, 0), (0, 1), (1, 0), (0, 0), (0, 1)]
        # the 2-torsion moved onto the even classes of O(4) fails the rank check
        moved = polynomial_table([(i, 0 if i % 2 else 2) for i in range(1, 5)], 10)
        ranks = [r for r, _ in orthogonal_cohomology(O(4), 20)[::2]]
        assert [row.free_rank for row in moved.rows] != ranks


class TestDeepTrees:
    """A re-parsed deep or long group is the memo's key object, so a second
    call finds the stored table without comparing trees."""

    @pytest.mark.parametrize(
        "text",
        [" x ".join(["GL(1) x O(1)"] * 2000), "wr(2, " * 2000 + "Z/2" + ")" * 2000],
        ids=["product-4000", "tower-2000"],
    )
    def test_second_parse_returns_the_memo_table(self, text):
        chow_model.cache_clear()
        first = chow_model(parse_group_expr(text), C, 1)
        assert chow_model(parse_group_expr(text), C, 1) is first

    def test_deep_wreath_product_alternation_at_the_default_recursion_limit(self):
        # each level waits on the stack twice, as a wreath and as a product whose
        # wreath term is not stored: 1,999 such builds and the leaf Z/3 x Z/2 = Z/6
        g = parse_group_expr("wr(2, Z/3 x " * 1000 + "Z/2" + ")" * 1000)
        chow_model.cache_clear()
        limit = sys.getrecursionlimit()
        table = chow_model(g, C, 2)
        assert sys.getrecursionlimit() == limit and table.group is g
        assert chow_model.cache_info() == (0, 2000, 2000)


def abelian_invariant_factors_elementary(g):
    # invariant factors, split into prime powers to match table torsion
    from chowbg._intmath import factorint

    out = []
    for f in abelian_invariant_factors(g):
        for p, e in factorint(f):
            out.append(p**e)
    return out


def _outcome(call):
    """The table fields a call returns, or the type and text of its error."""
    try:
        t = call()
    except (UnsupportedError, ValueError) as error:
        return type(error), str(error)
    return t.rows, t.bound, t.group, t.field, t.localization, t.provenance


class TestGradedMemo:
    """One widest table per (group, field) serves every smaller bound."""

    @settings(max_examples=80, deadline=None)
    @given(
        group_exprs(),
        st.sampled_from(KUNNETH_FIELDS),
        st.integers(min_value=-2, max_value=6),
        st.integers(min_value=0, max_value=4),
    )
    @example(Wreath(2, CyclicZ(5)), parse_field("Q(mu_3)"), 3, 2)  # extrapolated provenance
    @example(CyclicZ(5), parse_field("F_2"), -1, 3)
    def test_slice_equals_cold_table(self, g, k, bound, extra):
        chow_model.cache_clear()
        cold = _outcome(lambda: chow_model(g, k, bound))
        chow_model.cache_clear()
        wide = _outcome(lambda: chow_model(g, k, max(bound, 0) + extra))
        wide_built = not isinstance(wide[0], type)  # an error outcome starts with its type
        misses = chow_model.cache_info().misses
        assert _outcome(lambda: chow_model(g, k, bound)) == cold
        if bound >= 0 and wide_built:
            assert chow_model.cache_info().misses == misses  # served as a slice

    def test_slice_is_a_hit_without_polynomial_table(self, monkeypatch):
        calls = _count_builds(monkeypatch)["polynomial_table"]
        chow_model.cache_clear()
        g = parse_group_expr("wr(2, Z/2) x GL(2)")
        wide = chow_model(g, C, 9)
        # misses: the product, the wreath and Z/2; the wreath needs no polynomial_table
        assert chow_model.cache_info()[:2] == (0, 3) and len(calls) == 2
        assert chow_model(g, C, 9) is wide
        narrow = chow_model(g, C, 4)
        assert narrow.rows == wide.rows[:5] and narrow.bound == 4
        again = chow_model(g, C, 4)
        assert again == narrow and again is not narrow  # a fresh slice each time
        info = chow_model.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 3, 3) and len(calls) == 2
        chow_model(g, C, 12)  # a larger bound builds again
        assert chow_model.cache_info()[1:] == (6, 3) and len(calls) == 4
        chow_model.cache_clear()
        info = chow_model.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        assert chow_model(g, C, 4) == narrow and len(calls) == 6

    def test_counts_exact_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        # no wreath: every call is one lookup, so hits + misses counts the calls
        groups = [parse_group_expr(t) for t in ("Z/6 x GL(1)", "O(3)", "S_3", "Sp(4) x Z/4")]
        calls = [(g, b) for g in groups for b in range(1, 9)] * 8
        chow_model.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda c: chow_model(c[0], C, c[1]), calls))
        finally:
            sys.setswitchinterval(interval)
        info = chow_model.cache_info()
        assert info.hits + info.misses == len(calls) and info.currsize == len(groups)
        served = {}
        for call, table in zip(calls, results):
            assert served.setdefault(call, table) == table  # equal tables per key
        chow_model.cache_clear()
        assert all(chow_model(g, C, b) == t for (g, b), t in served.items())

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(group_exprs(), st.builds(Symmetric, st.integers(min_value=1, max_value=9))),
        st.sampled_from(KUNNETH_FIELDS),
        st.integers(min_value=-1, max_value=6),
        st.sampled_from([2, 3, 5, 7]),
    )
    def test_mod_p_matches_localized_composition(self, g, k, bound, p):
        # the route before the one-pass view: localize, then count F_p-dimensions
        expected = _outcome(lambda: mod_p_table(chow_model_localized(g, k, bound, p), p))
        assert _outcome(lambda: chow_model_mod_p(g, k, bound, p)) == expected


MIXED = parse_group_expr("wr(2, Z/2) x Z/3")
PUBLIC_CALLS = {
    "chow_model": lambda b: chow_model(MIXED, C, b),
    "chow_model_localized": lambda b: chow_model_localized(MIXED, C, b, 2),
    "chow_model_localized/p-primary": lambda b: chow_model_localized(Wreath(2, CyclicZ(4)), C, b, 2),
    "chow_model_localized/S_n": lambda b: chow_model_localized(Symmetric(3), C, b, 3),
    "chow_model_mod_p": lambda b: chow_model_mod_p(parse_group_expr("wr(3, Z/3) x GL(2)"), C, b, 3),
    "chow_model_mod_p/torsion-free": lambda b: chow_model_mod_p(parse_group_expr("GL(2)"), C, b, 3),
    "chow_model_mod_p/S_n": lambda b: chow_model_mod_p(Symmetric(3), C, b, 3),
    "chow_wreath": lambda b: chow_wreath(2, polynomial_table([(1, 4)], b, None, C)),
    "chow_symmetric_local": lambda b: chow_symmetric_local(3, 2, C, b),
    "chow_symmetric_sylow_bound": lambda b: chow_symmetric_sylow_bound(6, 2, b),
    "chow_integral_symmetric": lambda b: chow_integral_symmetric(3, b),
}


class TestStoredSeries:
    """Tables are stored as series; the rows are a view that no public call
    and no memo build makes, only a reader of ``rows``, on the table it reads."""

    @pytest.mark.parametrize("warm", [None, 6, 9], ids=["cold", "truncated", "same-bound"])
    @pytest.mark.parametrize("call", list(PUBLIC_CALLS.values()), ids=list(PUBLIC_CALLS))
    def test_public_call_returns_built_rows(self, call, warm):
        # the call returns series alone; the first read of ``rows`` builds them
        chow_model.cache_clear()
        if warm is not None:
            call(9)
        table = call(warm or 6)
        assert table._rows is None  # the cached slot, not the ``rows`` property
        rows = table.rows
        assert table._rows is rows and table.rows is rows
        metadata = (table.group, table.field, table.localization, table.provenance)
        assert table == ChowTable.from_rows(rows, table.bound, *metadata)
        assert rows == ChowTable.from_rows(rows, table.bound).rows

    def test_recursion_builds_no_rows(self):
        chow_model.cache_clear()
        inner_group = parse_group_expr("wr(2, Z/2)")
        outer = chow_model(parse_group_expr("wr(2, wr(2, Z/2))"), C, 20)
        stored = models._widest[(inner_group, C)]
        assert outer._rows is None and stored._rows is None
        assert models._widest[(CyclicZ(2), C)]._rows is None
        inner = chow_model(inner_group, C, 20)
        assert inner is stored and inner._rows is None
        assert chow_model(inner_group, C, 20) is inner
        inner.rows  # built on the stored table, which a truncation does not share
        narrow = chow_model(inner_group, C, 7)
        assert narrow.bound == 7 and narrow._rows is None and narrow.rows == inner.rows[:8]

    @settings(max_examples=150, deadline=None)
    @given(
        group_exprs(),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=4),
        st.sampled_from([2, 3, 5, 7]),
        st.booleans(),
    )
    def test_series_tables_match_row_built_references(self, g, bound, extra, p, rows_first):
        chow_model.cache_clear()
        try:
            stored = models._memo(g, C, bound + extra)  # no rows built
        except UnsupportedError:
            assume(False)
        assert stored._rows is None
        sliced = stored.truncated(bound)
        tables = [stored, sliced, localize_table(sliced, p), mod_p_table(sliced, p)]
        public = [  # memo hits: no public call builds rows
            chow_model(g, C, bound + extra),
            chow_model(g, C, bound),
            chow_model_localized(g, C, bound, p),
            chow_model_mod_p(g, C, bound, p),
        ]
        assert all(t._rows is None for t in public)
        if rows_first:
            for t in tables:
                t.rows
        rows = pickle.loads(pickle.dumps(stored)).rows  # leaves ``stored`` as it was
        wide = ChowTable.from_rows(rows, stored.bound, g, C, INTEGRAL, stored.provenance)
        narrow = ChowTable.from_rows(rows[: bound + 1], bound, g, C, INTEGRAL, stored.provenance)
        references = [
            wide,
            narrow,
            from_counts_localize_table(narrow, p),
            from_counts_mod_p_table(narrow, p),
        ]
        assert [t._rows is not None for t in tables] == [rows_first] * len(tables)
        copies = [pickle.loads(pickle.dumps(t)) for t in tables]
        for table, copy, reference in zip(tables, copies, references):
            for t in (table, copy):
                assert t == reference and hash(t) == hash(reference)
        assert [t._rows is not None for t in tables] == [rows_first] * len(tables)
        for table, copy, reference in zip(tables, copies, references):
            _assert_same_rows(table, reference)
            _assert_same_rows(copy, reference)
        for table, reference in zip(public, references):
            assert table == reference and hash(table) == hash(reference)
            _assert_same_rows(table, reference)


def _assert_same_rows(table, reference):
    assert table.rows == reference.rows
    assert [hash(r) for r in table.rows] == [hash(r) for r in reference.rows]


def _scripted_tallies(g, bound, stored, order=None):
    """The (hits, misses) of one memo lookup of g through ``bound`` >= 0,
    given the bound ``stored`` holds for each group, which it updates as the
    memo does: a miss builds g, and that build looks up the inner group of a
    wreath, or each wreath term of a product, in order.  Each group it marks
    stored is appended to ``order``, if given: the memo's order of stores."""
    if stored.get(g, -1) >= bound:
        return 1, 0
    hits, misses = 0, 1
    if isinstance(g, Wreath):
        needs = [g.inner]
    else:
        needs = [t for t in product_terms(g) if isinstance(t, Wreath)]
    for t in needs:
        h, m = _scripted_tallies(t, bound, stored, order)
        hits, misses = hits + h, misses + m
    stored[g] = bound
    if order is not None:
        order.append(g)
    return hits, misses


ROWS = "table must have one row per degree 0..bound"
SYLOW_2 = (
    "the 2-Sylow subgroup of S_%d is not cyclic; the stable-element computation beyond "
    "prime-order Sylow subgroups is not available"
)
LACKS, SINGLE = "lacks the roots of unity needed", "only a single Z/p is established over such fields"
COMPANY = f"%s lacks the roots of unity of order 3, and Z/3 meets other 3-torsion in %s; {SINGLE}"
# F_7 holds the roots of unity of order 2, 3 and 6 only: over it Z/5 takes the
# cyclotomic route, and Z/4 or a wreath wr(5, -) is refused
FAST_FIELDS = [C, parse_field("F_7")]
VIEWS = {
    "localized": (chow_model_localized, localize_table, from_counts_localize_table),
    "mod_p": (chow_model_mod_p, mod_p_table, from_counts_mod_p_table),
}


class TestFastPaths:
    """A memo hit is one lookup, a view reads the stored table and cuts only
    what it keeps, and a Sylow bound reuses its group: each answers as the
    slow references do, and the memo counts each lookup once."""

    @settings(max_examples=120, deadline=None)
    @given(
        group_exprs().filter(lambda g: not isinstance(g, Symmetric)),
        st.sampled_from(FAST_FIELDS),
        st.integers(min_value=0, max_value=30),
        st.sampled_from([2, 3, 5]),
        st.sampled_from(["cold", "same-bound", "larger-bound"]),
        st.sampled_from(sorted(VIEWS)),
    )
    @example(parse_group_expr("wr(2, wr(2, Z/2)) x wr(2, Z/2)"), C, 9, 2, "cold", "localized")
    @example(parse_group_expr("wr(3, Z/3) x Z/5"), FAST_FIELDS[1], 12, 5, "larger-bound", "mod_p")
    def test_views_match_row_references_and_tallies(self, g, k, bound, p, state, view):
        fast, table_view, reference_view = VIEWS[view]
        chow_model.cache_clear()
        if state != "cold":
            try:  # a refused group is refused again below, by the same error
                chow_model(g, k, bound + 3 * (state == "larger-bound"))
            except UnsupportedError:
                pass
        before, stores = chow_model.cache_info(), []  # the group of each store, in order

        def recording(g, *rest, store=models._store):
            stores.append(g)
            return store(g, *rest)

        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(models, "_store", recording)
                table = fast(g, k, bound, p)
        except UnsupportedError as error:
            refusal = (UnsupportedError, str(error))
            assert _outcome(lambda: table_view(chow_model(g, k, bound), p)) == refusal
            return
        after = chow_model.cache_info()
        stored, order = {}, []
        expected = (1, 0) if state != "cold" else _scripted_tallies(g, bound, stored, order)
        assert (after.hits - before.hits, after.misses - before.misses) == expected
        assert after.currsize == (len(stored) if state == "cold" else before.currsize)
        assert stores == order  # the builds finish in the scripted order
        full = chow_model(g, k, bound)
        for reference in (table_view(full, p), reference_view(full, p)):
            assert table == reference and hash(table) == hash(reference)
            assert table.rows == reference.rows

    def test_scripted_tallies_count_shared_wreaths_once(self):
        g = parse_group_expr("wr(2, wr(2, Z/2)) x wr(2, Z/2)")
        stored = {}
        # misses: the product, wr(2, wr(2, Z/2)), wr(2, Z/2), Z/2; the second
        # wreath term is the stored wr(2, Z/2)
        order = []
        assert _scripted_tallies(g, 6, stored, order) == (1, 4) and len(stored) == 4
        assert order == [parse_group_expr(t) for t in ("Z/2", "wr(2, Z/2)", "wr(2, wr(2, Z/2))")] + [g]
        assert _scripted_tallies(g, 5, stored) == (1, 0)
        assert _scripted_tallies(g, 7, stored) == (1, 4)

    def test_a_hit_builds_nothing(self, monkeypatch):
        g = parse_group_expr("wr(2, Z/2) x wr(3, Z/3)")
        chow_model.cache_clear()
        wide = chow_model(g, C, 12)
        monkeypatch.setattr(models, "_build", None)  # a call would raise TypeError
        assert chow_model(g, C, 12) is wide and chow_model(g, C, 7) == wide.truncated(7)
        assert chow_model_localized(g, C, 7, 3) == localize_table(wide, 3).truncated(7)
        assert chow_model_mod_p(g, C, 12, 2) == mod_p_table(wide, 2)
        # one hit per call; the misses are the product, both wreaths, Z/2 and Z/3
        assert chow_model.cache_info()[:2] == (4, 5)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=30),
        st.sampled_from([2, 3, 5]),
        st.sampled_from(FAST_FIELDS),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=3),
    )
    @example(12, 2, C, 6, 0)
    @example(26, 3, C, 5, 3)
    def test_sylow_bound_matches_truncated_relabel(self, n, p, k, bound, extra):
        chow_model.cache_clear()
        try:  # the stored bound is bound + extra
            chow_symmetric_sylow_bound(n, p, bound + extra, k)
        except UnsupportedError as error:  # F_7 lacks mu_5: refused again by the same error
            refusal = (UnsupportedError, str(error))
            assert _outcome(lambda: chow_symmetric_sylow_bound(n, p, bound, k)) == refusal
            return
        before = chow_model.cache_info()
        table = chow_symmetric_sylow_bound(n, p, bound, k)
        assert chow_model.cache_info() == (before.hits + 1, before.misses, before.currsize)
        stored = chow_model(sylow_group(n, p), k, bound + extra)
        expected = relabelled(stored.truncated(bound), provenance=(EXACT, UPPER_BOUND))
        assert table == expected and hash(table) == hash(expected)
        assert table.rows == expected.rows

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from([2, 3, 4, 5, 7]),
        st.sampled_from([*FAST_FIELDS, parse_field("F_3"), Q]),
        st.integers(min_value=-1, max_value=16),
    )
    @example(4, 3, C, 8)
    @example(3, 3, parse_field("F_3"), 4)
    def test_symmetric_mod_p_matches_mod_p_of_local(self, n, p, k, bound):
        chow_model.cache_clear()
        try:
            reference = mod_p_table(chow_symmetric_local(n, p, k, bound), p)
        except (ValueError, UnsupportedError) as error:
            refusal = (type(error), str(error))
            assert _outcome(lambda: chow_model_mod_p(Symmetric(n), k, bound, p)) == refusal
            return
        table = chow_model_mod_p(Symmetric(n), k, bound, p)
        assert table == reference and hash(table) == hash(reference)
        assert table.rows == reference.rows and table.localization is reference.localization
        assert chow_model.cache_info() == (0, 0, 0)  # the S_n route keeps no memo entry

    @pytest.mark.parametrize(
        "group, field, bound, error, message, counts",
        [
            pytest.param("Z/2", C, -1, ValueError, ROWS, (0, 0, 0), id="Z/2--1-ValueError"),
            pytest.param("S_4", C, 3, UnsupportedError, SYLOW_2 % 4, (0, 0, 0), id="S_4-3-UnsupportedError"),
            pytest.param("wr(2, Z/2)", C, -1, ValueError, ROWS, (0, 0, 0), id="wr(2, Z/2)--1-ValueError"),
            # the terms of a product are met in order, a wreath term's table built in its
            # place: what finished before a refusal stays stored and counted
            pytest.param("S_5 x wr(3, Z/3)", Q, 4, UnsupportedError, SYLOW_2 % 5, (0, 0, 0), id="S_5-first/Q"),
            pytest.param("wr(3, Z/3) x S_5", Q, 4, UnsupportedError, f"wr(3, -) {MU} 3 in the base field", (0, 1, 1), id="wreath-first/Q"),
            pytest.param("wr(2, Z/2) x S_5", C, 4, UnsupportedError, SYLOW_2 % 5, (0, 2, 2), id="wreath-first/C"),
            pytest.param("S_5 x wr(2, Z/2)", C, 4, UnsupportedError, SYLOW_2 % 5, (0, 0, 0), id="S_5-first/C"),
            pytest.param("wr(2, Z/2 x S_5)", C, 4, UnsupportedError, SYLOW_2 % 5, (0, 0, 0), id="S_5-inside/C"),
            pytest.param("Z/3 x Z/3", Q, 4, UnsupportedError, f"Q {LACKS} for Z/3 x Z/3; {SINGLE}", (0, 0, 0), id="Z/3 x Z/3/Q"),
            # a cyclotomic Z/3 with company is refused before any table is built
            *(
                pytest.param(g, parse_field(k), 4, UnsupportedError, COMPANY % (k, g), (0, 0, 0), id=f"{g}/{k}")
                for g in ("wr(2, Z/3)", "Z/3 x S_3", "Z/3 x wr(2, S_3)", "Z/3 x wr(2, Z/3)")
                for k in ("Q", "F_5", "Q(mu_5)")
            ),
        ],
    )  # fmt: skip
    def test_a_refused_request_counts_nothing(self, group, field, bound, error, message, counts):
        # the misses are the builds: a build that raises stores and counts nothing
        chow_model.cache_clear()
        with pytest.raises(error) as info:
            chow_model(parse_group_expr(group), field, bound)
        assert type(info.value) is error and str(info.value) == message
        assert chow_model.cache_info() == counts

    def test_a_hit_builds_one_table(self, monkeypatch):
        g = parse_group_expr("wr(2, Z/2) x wr(3, Z/3)")
        chow_model.cache_clear()
        wide = chow_model(g, C, 12)
        chow_symmetric_sylow_bound(12, 2, 8)
        misses = chow_model.cache_info().misses
        built = []  # the bound of each table built
        init = ChowTable.__init__

        def counting(self, bound, *args):
            built.append(bound)
            init(self, bound, *args)

        monkeypatch.setattr(ChowTable, "__init__", counting)
        calls = {
            "chow_model at the stored bound": (lambda: chow_model(g, C, 12), []),
            "chow_model below it": (lambda: chow_model(g, C, 7), [7]),
            "p-local view": (lambda: chow_model_localized(g, C, 7, 3), [7]),
            "mod-p view": (lambda: chow_model_mod_p(g, C, 12, 2), [12]),
            "Sylow bound below its stored bound": (lambda: chow_symmetric_sylow_bound(12, 2, 5), [5]),
            "mod-p table of an S_n": (lambda: chow_model_mod_p(Symmetric(5), C, 12, 5), [12]),
        }
        for name, (call, bounds) in calls.items():
            built.clear()
            call()
            assert built == bounds, name
        monkeypatch.undo()
        assert chow_model(g, C, 12) is wide and chow_model.cache_info().misses == misses

    def test_views_share_one_localization_per_prime(self):
        from chowbg import tables

        g = parse_group_expr("wr(2, Z/4) x Z/3")
        a, b = chow_model_localized(g, C, 8, 2), chow_model_localized(g, C, 5, 2)
        assert a.localization is b.localization == Localization("at_prime", 2)
        c, d = chow_model_mod_p(g, C, 8, 3), mod_p_table(chow_model(g, C, 8), 3)
        assert c.localization is d.localization == Localization("mod_p", 3)
        for view in (localize_table, mod_p_table):
            with pytest.raises(ValueError, match="^p must be prime, got 4$"):
                view(chow_model(g, C, 8), 4)
        assert not [key for key in tables._localizations if key[1] == 4]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=14),
        st.sampled_from([2, 3, 5]),
        st.integers(min_value=0, max_value=10),
    )
    def test_sylow_bound_repeats_after_clear_and_across_threads(self, n, p, bound):
        from concurrent.futures import ThreadPoolExecutor

        chow_model.cache_clear()
        first = chow_symmetric_sylow_bound(n, p, bound)
        assert first.group == sylow_group_by_towers(n, p) and first.bound == bound
        assert first.provenance == (EXACT, UPPER_BOUND)
        assert chow_symmetric_sylow_bound(n, p, bound) == first
        chow_model.cache_clear()
        assert models._sylow == {} and chow_model.cache_info() == (0, 0, 0)
        assert chow_symmetric_sylow_bound(n, p, bound) == first
        chow_model.cache_clear()
        with ThreadPoolExecutor(max_workers=2) as pool:
            twins = list(pool.map(lambda _: chow_symmetric_sylow_bound(n, p, bound), range(2)))
        assert twins == [first, first] and hash(twins[1]) == hash(first)

    def test_sylow_group_built_once_per_memo_lifetime(self, monkeypatch):
        # S_12 and S_13 share their 2-Sylow subgroup, so one build serves both
        made = []

        def counting(n, p):
            made.append((n, p))
            return sylow_group(n, p)

        monkeypatch.setattr(models, "sylow_group", counting)
        chow_model.cache_clear()
        first = chow_symmetric_sylow_bound(12, 2, 6)
        assert made == [(12, 2)] and models._sylow == {(6, 2): first.group}
        misses = chow_model.cache_info().misses
        for n, bound in ((12, 4), (13, 6), (13, 2), (12, 6)):
            hits = chow_model.cache_info().hits
            assert chow_symmetric_sylow_bound(n, 2, bound) == first.truncated(bound)
            assert chow_model.cache_info()[:2] == (hits + 1, misses)  # one hit, no build
        assert made == [(12, 2)] and list(models._sylow) == [(6, 2)]
        assert chow_symmetric_sylow_bound(14, 2, 6).group is sylow_group_by_towers(14, 2)
        assert made == [(12, 2), (14, 2)]
        chow_model.cache_clear()
        assert models._sylow == {}
        assert chow_symmetric_sylow_bound(13, 2, 6) == first
        assert made == [(12, 2), (14, 2), (13, 2)] and list(models._sylow) == [(6, 2)]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2000), st.sampled_from([2, 3, 5, 7, 11]))
    @example(0, 2)
    @example(2000, 2)
    @example(1330, 11)
    def test_sylow_group_is_the_profile_group(self, n, p):
        built = sylow_group(n, p)
        reference = sylow_group_by_towers(n, p)
        if isinstance(built, (Product, Wreath)):
            assert built is reference  # interned nodes
        else:
            assert built == reference and type(built) is type(reference)
        assert sylow_group(n - n % p, p) is built or sylow_group(n - n % p, p) == built

    @pytest.mark.parametrize("n, p, error, message", [
        (-1, 2, ValueError, "n must be >= 0"),
        (5, 4, ValueError, "p must be prime, got 4"),
        (5, 1, ValueError, "p must be prime, got 1"),
    ])  # fmt: skip
    def test_sylow_group_refusals(self, n, p, error, message):
        with pytest.raises(error) as info:
            sylow_group(n, p)
        assert type(info.value) is error and str(info.value) == message

    def test_sylow_group_of_a_large_prime_is_trivial(self):
        # n < p: no list of n entries, as the profile's heights would make
        assert sylow_group(10**11, 10**11 + 3) == sylow_group(10**15, 10**15 + 37) == Trivial()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=60),
                st.sampled_from([2, 3, 5, 7, 11]),
                st.integers(min_value=0, max_value=12),
                st.sampled_from(FAST_FIELDS),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_sylow_bounds_match_the_profile_models_in_any_order(self, calls):
        chow_model.cache_clear()
        answers = []
        for n, p, bound, k in calls:
            before = chow_model.cache_info()
            try:
                answers.append(chow_symmetric_sylow_bound(n, p, bound, k))
            except UnsupportedError as error:
                assert not contains_mu(k, p) and chow_model.cache_info() == before
                answers.append(str(error))
        for (n, p, bound, k), answer in zip(calls, answers):
            chow_model.cache_clear()  # each reference from an empty memo
            if not contains_mu(k, p):
                with pytest.raises(UnsupportedError) as refusal:
                    require_mu(k, p, f"the {p}-Sylow table of S_{n}")
                assert answer == str(refusal.value)
                continue
            reference = chow_model(sylow_group_by_towers(n, p), k, bound)
            reference = relabelled(reference, provenance=(EXACT, UPPER_BOUND))
            assert answer == reference and answer.levels == reference.levels

    @settings(max_examples=120, deadline=None)
    @given(group_exprs(), st.sampled_from(FAST_FIELDS), st.integers(min_value=0, max_value=16))
    def test_one_pass_truncation_matches_the_dict_reference(self, g, k, top):
        try:
            table = chow_model(g, k, top)
        except UnsupportedError:
            return
        for view in (table, localize_table(table, 2), mod_p_table(table, 3)):
            for bound in range(top):
                cut, reference = view.truncated(bound), truncated_by_dict(view, bound)
                assert cut == reference and cut.levels == reference.levels
                metadata = (view.group, view.field, view.localization, view.provenance)
                assert cut == ChowTable.from_rows(view.rows[: bound + 1], bound, *metadata)

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.integers(min_value=1, max_value=25),
        st.sampled_from(KUNNETH_FIELDS),
        st.integers(min_value=0, max_value=30),
    )
    @example(4, 0, C, 3)  # both arguments refused: the p error comes first
    @example(4, 5, C, 3)
    @example(9, -1, C, 3)
    @example(3, 0, C, 3)
    @example(2, -1, C, 3)
    def test_symmetric_local_matches_the_kernel_table(self, p, n, k, bound):
        outcome = _outcome(lambda: chow_symmetric_local(n, p, k, bound))
        if not is_prime(p) or n < 1:  # checked before S_n is built
            message = "n must be >= 1" if is_prime(p) else f"p must be prime, got {p}"
            assert outcome == (ValueError, message)
            return
        assert outcome == _outcome(lambda: chow_model_localized(Symmetric(n), k, bound, p))
        if n >= 2 * p:
            assert outcome[0] is UnsupportedError
            return
        try:
            expected = symmetric_local_by_kernel(n, p, k, bound)
        except UnsupportedError as refusal:
            assert outcome == (UnsupportedError, str(refusal))
            return
        table = chow_symmetric_local(n, p, k, bound)
        general = chow_model_localized(Symmetric(n), k, bound, p)
        for t in (table, general):
            assert t == expected and t.levels == expected.levels
        assert table.rows == expected.rows
        assert table.localization is chow_model_localized(CyclicZ(p), C, 0, p).localization

    @pytest.mark.parametrize(
        "n, p, field, error, message",
        [
            (5, 4, C, ValueError, "p must be prime, got 4"),
            (-1, 2, C, ValueError, "n must be >= 0"),
            (5, 3, Q, UnsupportedError, "the 3-Sylow table of S_5 needs the roots of unity of order 3 in the base field"),
            (5, 3, parse_field("F_3"), UnsupportedError, "the 3-Sylow table of S_5 is only established in characteristic prime to 3"),
        ],
        ids=["non-prime", "negative-n", "no-mu_p", "char-p"],
    )  # fmt: skip
    def test_sylow_refusals_cache_nothing(self, n, p, field, error, message):
        chow_model.cache_clear()
        with pytest.raises(error) as info:
            chow_symmetric_sylow_bound(n, p, 4, field)
        assert type(info.value) is error and str(info.value) == message
        assert models._sylow == {} and chow_model.cache_info() == (0, 0, 0)

    def test_concurrent_views_and_sylow_bounds_match_serial_answers(self):
        from concurrent.futures import ThreadPoolExecutor

        groups = [parse_group_expr(t) for t in ("wr(2, wr(2, Z/2)) x Z/3", "wr(3, Z/3) x GL(2)")]
        calls = [("sylow", n, p, b) for n, p in ((12, 2), (9, 3), (10, 5)) for b in (3, 6)]
        calls += [(kind, g, b, p) for kind in ("local", "modp", "model") for g in groups
                  for b in (6, 10) for p in (2, 3)]  # fmt: skip
        run = {
            "sylow": lambda n, p, b: chow_symmetric_sylow_bound(n, p, b),
            "local": lambda g, b, p: chow_model_localized(g, C, b, p),
            "modp": lambda g, b, p: chow_model_mod_p(g, C, b, p),
            "model": lambda g, b, p: chow_model(g, C, b),
        }
        chow_model.cache_clear()
        serial = [run[kind](*args) for kind, *args in calls]
        chow_model.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run[kind], *args) for kind, *args in calls * 4]
                answers = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert answers == serial * 4
