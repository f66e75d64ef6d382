import hashlib
import json
from itertools import product
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowbg import cyclic, tables
from chowbg._intmath import factorint
from chowbg.cli import table_to_json_obj
from chowbg.cyclic import (
    _orbit_representatives,
    cyclic_power_codim,
    cyclic_power_dim,
    cyclic_power_table,
    rotation_orbit_summary,
)
from chowbg.errors import GradingError
from chowbg.fields import COMPLEX
from chowbg.graded import (
    CODIM,
    Alpha,
    CyclicSummand,
    Dim,
    Gamma,
    Generator,
    GradedAbelianGroup,
    Tensor,
    degree_orders,
    normalize,
    to_table,
)
from chowbg.groups import CyclicZ, O, Wreath
from chowbg.models import chow_model, chow_symmetric_sylow_bound
from chowbg.tables import DegreeRow
import oracles
from oracles import (
    abelian_invariant_factors,
    cyclic_square_of_plane,
    repeated_power_counts,
    rotation_orbits,
)
from strategies import graded_groups


def dim_group(*summands, ambient, bound=None):
    parts = tuple(
        CyclicSummand(order, deg, Generator(name)) for order, deg, name in summands
    )
    return normalize(
        GradedAbelianGroup(Dim(ambient), parts, ambient if bound is None else bound)
    )


def codim_group(*summands, bound):
    parts = tuple(
        CyclicSummand(order, deg, Generator(name)) for order, deg, name in summands
    )
    return normalize(GradedAbelianGroup(CODIM, parts, bound))


class TestOrbitSummary:
    def test_two_letters_both_excluded(self):
        assert rotation_orbit_summary(2, 2, 2) == 1

    def test_single_diagonal_kept(self):
        assert rotation_orbit_summary(1, 3, 0) == 1

    def test_three_letters_one_excluded(self):
        assert rotation_orbit_summary(3, 2, 1) == 5

    @given(st.integers(min_value=0, max_value=6), st.sampled_from([2, 3, 5]))
    def test_matches_bruteforce_orbit_listing(self, n, p):
        assert rotation_orbit_summary(n, p, 0) == len(rotation_orbits(n, p))

    @given(
        st.lists(st.integers(min_value=0, max_value=4), max_size=5),
        st.sampled_from([2, 3, 5]),
        st.none() | st.integers(min_value=0, max_value=12),
    )
    def test_representatives_are_the_minimal_rotations(self, degrees, p, budget):
        expected = [
            t
            for t in product(range(len(degrees)), repeat=p)
            if (budget is None or sum(degrees[i] for i in t) <= budget)
            and all(t <= t[k:] + t[:k] for k in range(1, p))
        ]
        assert _orbit_representatives(degrees, p, budget) == expected


class TestDimMode:
    def test_square_of_plane_matches_stratification_oracle(self):
        out = cyclic_power_dim(dim_group((0, 2, "e"), ambient=2), 2)
        expected = cyclic_square_of_plane()
        assert out.grading == Dim(4)
        for d in range(5):
            assert tuple(sorted(expected.get(d, []))) == degree_orders(out).get(d, ())

    def test_square_of_point(self):
        out = cyclic_power_dim(dim_group((0, 0, "e"), ambient=0), 2)
        assert out.grading == Dim(0)
        assert degree_orders(out) == {0: (0,)}
        assert isinstance(out.summands[0].label, Tensor)

    def test_two_torsion_lines(self):
        out = cyclic_power_dim(dim_group((2, 1, "e1"), (2, 1, "e2"), ambient=1), 2)
        # one mixed tensor orbit of order 2 and two gammas of order 4, all in dim 2
        assert degree_orders(out) == {2: (2, 4, 4)}
        labels = {type(s.label) for s in out.summands}
        assert labels == {Tensor, Gamma}

    def test_alpha_orders_and_range(self):
        out = cyclic_power_dim(dim_group((0, 3, "e"), ambient=3), 3)
        alphas = [s for s in out.summands if isinstance(s.label, Alpha)]
        assert {s.order for s in alphas} == {3}
        assert sorted(s.degree for s in alphas) == list(range(4, 9))

    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize("p", [2, 3])
    def test_affine_space_strata_oracle(self, i, p):
        # the cyclic power of affine i-space decomposes into open subsets of
        # affine spaces of dimensions i+1..p*i: an infinite cyclic class on
        # top and a p-torsion class per intermediate stratum, nothing below
        out = cyclic_power_dim(dim_group((0, i, "e"), ambient=i), p)
        expected = {p * i: (0,), **{j: (p,) for j in range(i + 1, p * i)}}
        assert degree_orders(out) == expected

    def test_requires_dim_grading(self):
        with pytest.raises(GradingError):
            cyclic_power_dim(codim_group((2, 1, "a"), bound=3), 2)

    def test_requires_normalized(self):
        raw = GradedAbelianGroup(
            Dim(2), (CyclicSummand(6, 2, Generator("a")),), 2
        )
        with pytest.raises(ValueError):
            cyclic_power_dim(raw, 2)

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            cyclic_power_dim(dim_group((0, 1, "e"), ambient=1), 4)


class TestCodimMode:
    def test_point_gives_polynomial_table_p2(self):
        out = cyclic_power_codim(codim_group((0, 0, "1"), bound=10), 2)
        assert degree_orders(out) == {0: (0,), **{d: (2,) for d in range(1, 11)}}

    def test_point_gives_polynomial_table_p3(self):
        out = cyclic_power_codim(codim_group((0, 0, "1"), bound=6), 3)
        assert degree_orders(out) == {0: (0,), **{d: (3,) for d in range(1, 7)}}

    def test_wreath_of_bz2_low_degrees(self):
        bz2 = codim_group((0, 0, "1"), *[(2, d, f"x{d}") for d in range(1, 5)], bound=4)
        out = cyclic_power_codim(bz2, 2)
        table = degree_orders(out)
        assert table[1] == (2, 2)
        assert table[2] == (2, 2, 4)

    def test_bound_preserved(self):
        out = cyclic_power_codim(codim_group((0, 0, "1"), bound=7), 5)
        assert out.valid_through == 7

    def test_non_p_diagonal_kept_with_its_order(self):
        out = cyclic_power_codim(codim_group((3, 1, "a"), bound=4), 2)
        # (a, a) stays a tensor summand of order 3; no gamma, no alpha
        assert degree_orders(out) == {2: (3,)}
        assert isinstance(out.summands[0].label, Tensor)


class TestCountedTable:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @given(data=st.data())
    def test_matches_labelled_reference(self, p, data):
        # the reference lists up to n**p index tuples; for p = 7 keep n <= 4
        # by drawing no composite order, which normalize would split in two
        if p == 7:
            groups = graded_groups(max_summands=4, orders=(0, 2, 3, 4, 5, 8, 9))
        else:
            groups = graded_groups()
        g = data.draw(groups)
        assert cyclic_power_table(to_table(g), p).rows == to_table(cyclic_power_codim(g, p)).rows

    def test_compute_path_is_reexported(self):
        assert cyclic.cyclic_power_table is tables.cyclic_power_table

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    @settings(max_examples=30, deadline=None)
    @given(graded_groups(max_bound=8))
    def test_squaring_matches_repeated_product(self, p, g):
        # the full p-fold Kunneth power table against the gcd oracle's p products
        table = to_table(g)
        factor = [(row.degree, oracles._row_counts(row)) for row in table.rows]
        power = tables.polynomial_table([table] * p, table.bound)
        assert power == oracles._table_from_counts(repeated_power_counts(factor, p, table.bound))

    def test_wr_101_at_300_pinned(self):
        # the sha256 of this JSON before the power was taken by squaring
        chow_model.cache_clear()
        start = perf_counter()
        table = chow_model(Wreath(101, CyclicZ(2)), COMPLEX, 300)
        elapsed = perf_counter() - start
        text = json.dumps(table_to_json_obj(table), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2419af562f3545025e8fb290fa0de33456c24ad919d3d2923c3849c51f376757"
        )
        assert elapsed < 2.0

    def test_height_three_tower_at_14(self):
        # counts of the labelled reference path on wr(2, wr(2, wr(2, Z/2))) @ 14
        tower = chow_model(Wreath(2, Wreath(2, Wreath(2, CyclicZ(2)))), COMPLEX, 14)
        assert sum(r.free_rank + len(r.torsion) for r in tower.rows) == 59_696
        assert tower.row(14).free_rank == 0
        assert len(tower.row(14).torsion) == 20_856


def summand_count(table):
    # from the (order, multiplicity) pairs: expanding them is what these tests guard against
    return sum(r.free_rank + sum(m for _, m in r.counts) for r in table.rows)


TOWER5 = Wreath(2, Wreath(2, Wreath(2, Wreath(2, Wreath(2, CyclicZ(2))))))


class TestScale:
    def test_o12_at_70(self):
        assert summand_count(chow_model(O(12), COMPLEX, 70)) == 9_480_443

    def test_height_five_tower_at_12(self):
        assert summand_count(chow_model(TOWER5, COMPLEX, 12)) == 49_678_729

    def test_height_five_tower_at_14(self):
        tower = chow_model(TOWER5, COMPLEX, 14)
        assert tower.rows[:13] == chow_model(TOWER5, COMPLEX, 12).rows
        split = [p**e for f in abelian_invariant_factors(TOWER5) for p, e in factorint(f)]
        assert tower.row(1) == DegreeRow(1, 0, tuple(split))
        assert tower.row(14).free_rank == 0
        assert tower.row(14).counts == ((2, 261_076_098), (4, 145_687))


class TestLargePrimeScale:
    """Large-p tables, row for row against the gcd kernels of ``oracles``."""

    @pytest.mark.parametrize("p, m", [(101, 2), (31, 31)])
    def test_wreath_at_300_matches_gcd_oracle(self, p, m):
        chow_model.cache_clear()
        table = chow_model(Wreath(p, CyclicZ(m)), COMPLEX, 300)
        inner = oracles.gcd_polynomial_table([(1, m)], 300)
        assert table.rows == oracles.gcd_cyclic_power_table(inner, p).rows

    def test_sylow_bound_of_s_10201_at_300_matches_gcd_oracle(self):
        # the 101-Sylow subgroup of S_{101^2} is wr(101, Z/101)
        table = chow_symmetric_sylow_bound(10201, 101, 300)
        inner = oracles.gcd_polynomial_table([(1, 101)], 300)
        assert table.rows == oracles.gcd_cyclic_power_table(inner, 101).rows


class TestDimWindow:
    @settings(max_examples=150)
    @given(
        st.sampled_from([2, 3]),
        st.integers(min_value=0, max_value=4),
        st.lists(
            st.tuples(st.sampled_from([0, 2, 3, 4, 9]), st.integers(0, 4)), max_size=4
        ),
    )
    def test_output_dimensions_inside_window(self, p, ambient, raw):
        summands = tuple(
            CyclicSummand(order, min(deg, ambient), Generator(f"g{i}"))
            for i, (order, deg) in enumerate(raw)
        )
        group = normalize(GradedAbelianGroup(Dim(ambient), summands, ambient))
        out = cyclic_power_dim(group, p)
        assert out.grading == Dim(p * ambient)
        for s in out.summands:
            assert 0 <= s.degree <= p * ambient
            if isinstance(s.label, Alpha):
                inner = next(x for x in group.summands if x.label == s.label.inner)
                assert inner.degree < s.degree < p * inner.degree


class TestStableLimit:
    """The codimension rule must be the large-ambient limit of the dimension
    rule: reindex a codim input inside ambient D+1, apply the dim-mode
    functor, reindex back, and the windows 0..D must agree exactly."""

    @settings(max_examples=200)
    @given(
        st.sampled_from([2, 3]),
        st.lists(
            st.tuples(st.sampled_from([0, 2, 3, 4, 5, 8, 9]), st.integers(0, 4)),
            max_size=5,
        ),
    )
    def test_codim_mode_is_ambient_limit_of_dim_mode(self, p, raw):
        bound = 4
        codim_in = codim_group(
            *[(order, deg, f"g{i}") for i, (order, deg) in enumerate(raw)], bound=bound
        )
        ambient = bound + 1
        dim_in = normalize(
            GradedAbelianGroup(
                Dim(ambient),
                tuple(
                    CyclicSummand(s.order, ambient - s.degree, s.label)
                    for s in codim_in.summands
                ),
                ambient,
            )
        )
        via_dim = cyclic_power_dim(dim_in, p)
        back = {
            p * ambient - d: orders
            for d, orders in degree_orders(via_dim).items()
            if p * ambient - d <= bound
        }
        direct = {
            d: orders
            for d, orders in degree_orders(cyclic_power_codim(codim_in, p)).items()
        }
        assert back == direct


@st.composite
def orbit_inputs(draw):
    # order profiles that never produce a coprime gcd, so the census is exact
    p = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["p", "q"]))
    q = 3 if p == 2 else 2
    pool = [0, p, p * p] if kind == "p" else [q, q * q]
    count = draw(st.integers(min_value=0, max_value=5))
    bound = 6
    summands = tuple(
        CyclicSummand(
            draw(st.sampled_from(pool)),
            draw(st.integers(min_value=0, max_value=2)),
            Generator(f"g{i}"),
        )
        for i in range(count)
    )
    return p, normalize(GradedAbelianGroup(CODIM, summands, bound))


class TestStructure:
    @settings(max_examples=200)
    @given(orbit_inputs())
    def test_summand_census(self, data):
        p, group = data
        high = group.valid_through * p + 1  # roomy bound: nothing truncated
        wide = GradedAbelianGroup(CODIM, group.summands, high)
        out = cyclic_power_codim(wide, p)
        n = len(group.summands)
        s_members = [x for x in wide.summands if x.order == 0 or x.order % p == 0]

        tensors = [x for x in out.summands if isinstance(x.label, Tensor)]
        gammas = [x for x in out.summands if isinstance(x.label, Gamma)]
        alphas = [x for x in out.summands if isinstance(x.label, Alpha)]

        assert len(tensors) == rotation_orbit_summary(n, p, len(s_members))
        assert all(x.order == p for x in alphas)
        assert len(gammas) == len(s_members)
        gamma_orders = sorted(x.order for x in gammas)
        assert gamma_orders == sorted(p * x.order for x in s_members)

    @given(orbit_inputs())
    def test_input_order_irrelevant(self, data):
        p, group = data
        reversed_group = GradedAbelianGroup(
            CODIM, tuple(reversed(group.summands)), group.valid_through
        )
        assert cyclic_power_codim(group, p) == cyclic_power_codim(
            normalize(reversed_group), p
        )
