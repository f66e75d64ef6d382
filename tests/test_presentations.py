import pytest
from hypothesis import given
from hypothesis import strategies as st

from chowbg._intmath import factorint
from chowbg.errors import UnsupportedError
from chowbg.groups import Trivial, parse_group_expr
from chowbg.presentations import (
    EXACT_PRESENTATION,
    GENERATORS_ONLY,
    RingPresentation,
    additive_table_from_presentation,
    catalog_presentation,
    presentation_generators,
)
from oracles import monomial_table, poincare_coefficients


def pres(text):
    return catalog_presentation(parse_group_expr(text))


class TestCatalog:
    def test_o3(self):
        p = pres("O(3)")
        assert p.generators == (("c1", 1), ("c2", 2), ("c3", 3))
        assert p.torsion_relations == ((2, "c1"), (2, "c3"))
        assert p.completeness == EXACT_PRESENTATION

    def test_sp4(self):
        p = pres("Sp(4)")
        assert p.generators == (("c2", 2), ("c4", 4))
        assert p.torsion_relations == ()

    def test_g2_generators_only(self):
        p = pres("G2")
        assert p.generators == tuple((f"c{i}", i) for i in range(1, 8))
        assert p.completeness == GENERATORS_ONLY

    def test_so_odd(self):
        p = pres("SO(7)")
        assert p.generators == tuple((f"c{i}", i) for i in range(2, 8))
        assert p.torsion_relations == ((2, "c3"), (2, "c5"), (2, "c7"))

    def test_gm(self):
        assert pres("Gm").generators == (("c1", 1),)

    def test_so_even_rejected(self):
        with pytest.raises(UnsupportedError):
            pres("SO(8)")

    def test_finite_group_rejected(self):
        with pytest.raises(UnsupportedError):
            pres("S_4")

    def test_odd_generators_all_two_torsion(self):
        # self-duality: each odd-degree generator of O / SO carries 2g = 0
        for text in ("O(5)", "O(6)", "SO(9)"):
            p = pres(text)
            related = {name for _, name in p.torsion_relations}
            for name, degree in p.generators:
                assert (degree % 2 == 1) == (name in related)


class TestValidation:
    def test_repeated_relation_rejected(self):
        # 2a = 3a = 0 forces a = 0; keeping only the last relation would give Z/3
        with pytest.raises(ValueError, match="at most one torsion relation"):
            RingPresentation(Trivial(), (("a", 1),), ((2, "a"), (3, "a")), EXACT_PRESENTATION)


class TestExpansion:
    def test_o3_degree_2(self):
        t = additive_table_from_presentation(pres("O(3)"), 3)
        assert (t.rows[2].free_rank, t.rows[2].torsion) == (1, (2,))

    def test_o3_degree_3(self):
        t = additive_table_from_presentation(pres("O(3)"), 3)
        assert (t.rows[3].free_rank, t.rows[3].torsion) == (0, (2, 2, 2))

    def test_gl2_degree_2(self):
        t = additive_table_from_presentation(pres("GL(2)"), 2)
        assert (t.rows[2].free_rank, t.rows[2].torsion) == (2, ())

    def test_generators_only_rejected(self):
        with pytest.raises(UnsupportedError):
            additive_table_from_presentation(pres("G2"), 4)
        with pytest.raises(UnsupportedError):
            presentation_generators(pres("G2"))

    def test_generator_list(self):
        # one (degree, m) per Chern class, m = 0 where no relation names it
        assert presentation_generators(pres("O(3)")) == [(1, 2), (2, 0), (3, 2)]
        assert presentation_generators(pres("Sp(4)")) == [(2, 0), (4, 0)]

    @pytest.mark.parametrize("text", ["O(1)", "O(2)", "O(3)", "O(4)", "O(5)", "O(6)", "SO(5)", "SO(7)"])
    def test_matches_bruteforce_enumeration(self, text):
        p = pres(text)
        t = additive_table_from_presentation(p, 12)
        expected = monomial_table(p.generators, dict((n, m) for m, n in p.torsion_relations), 12)
        for row in t.rows:
            assert (row.free_rank, sorted(row.torsion)) == expected[row.degree]

    @pytest.mark.parametrize("text", ["GL(1)", "GL(2)", "GL(4)", "Sp(2)", "Sp(4)", "Sp(8)"])
    def test_torsion_free_hilbert_series(self, text):
        p = pres(text)
        t = additive_table_from_presentation(p, 12)
        assert all(not row.torsion for row in t.rows)
        series = poincare_coefficients([d for _, d in p.generators], 12)
        assert [row.free_rank for row in t.rows] == series

    def test_free_part_is_even_index_polynomial_ring(self):
        # rationally, O(n) is a polynomial ring on the even Chern classes
        p = pres("O(6)")
        t = additive_table_from_presentation(p, 12)
        series = poincare_coefficients([2, 4, 6], 12)
        assert [row.free_rank for row in t.rows] == series

    def test_large_expansion_is_fast(self):
        import time

        start = time.monotonic()
        t = additive_table_from_presentation(pres("O(8)"), 64)
        elapsed = time.monotonic() - start
        assert elapsed < 60
        assert t.rows[64].free_rank > 0


@st.composite
def coefficient_presentations(draw):
    """1-4 generators of degree 1-4, each with no relation or m * g = 0 for
    m in {2, 3, 4, 6, 12}, composite coefficients included."""
    degrees = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    generators = tuple((f"g{i}", d) for i, d in enumerate(degrees))
    relations = tuple(
        (m, name)
        for name, _ in generators
        if (m := draw(st.sampled_from((None, 2, 3, 4, 6, 12)))) is not None
    )
    return RingPresentation(Trivial(), generators, relations, EXACT_PRESENTATION)


def prime_power_split(orders):
    return sorted(p**e for q in orders for p, e in factorint(q))


class TestCompositeCoefficients:
    def test_six_torsion_generator(self):
        p = RingPresentation(Trivial(), (("a", 1), ("b", 2)), ((6, "a"),), EXACT_PRESENTATION)
        t = additive_table_from_presentation(p, 3)
        assert [(r.free_rank, r.torsion) for r in t.rows] == [
            (1, ()),
            (0, (2, 3)),
            (1, (2, 3)),
            (0, (2, 2, 3, 3)),
        ]

    @given(coefficient_presentations(), st.integers(min_value=0, max_value=10))
    def test_matches_bruteforce_enumeration(self, pres, bound):
        t = additive_table_from_presentation(pres, bound)
        expected = monomial_table(pres.generators, {n: m for m, n in pres.torsion_relations}, bound)
        for row in t.rows:
            rank, orders = expected[row.degree]
            assert (row.free_rank, sorted(row.torsion)) == (rank, prime_power_split(orders))
