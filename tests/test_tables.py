import copy
import pickle
import re
from collections import Counter
from dataclasses import FrozenInstanceError
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chowbg import _json, tables
from chowbg._rows import torsion_sort_key
from chowbg.cli import render_row_value, table_from_json_obj, table_to_json_obj
from chowbg.errors import UnsupportedError
from chowbg.graded import tensor, to_table
from chowbg.fields import parse_field
from chowbg.groups import GL
from chowbg.models import chow_model
from chowbg.tables import (
    EXACT,
    UPPER_BOUND,
    ChowTable,
    DegreeRow,
    Localization,
    cyclic_power_table,
    localize_table,
    mod_p_table,
    polynomial_table,
)
from oracles import (
    gcd_cyclic_power_table,
    gcd_polynomial_table,
    run_length_row_value,
    run_length_torsion_json,
)
from strategies import graded_groups, group_exprs

ROW_ORDERS = (2, 3, 4, 5, 8, 9, 25, 27)

free_ranks = st.integers(min_value=0, max_value=5)
torsions = st.lists(st.sampled_from(ROW_ORDERS), max_size=40)  # with repeats
row_args = st.tuples(st.integers(min_value=0, max_value=20), free_ranks, torsions)


def table(*rows):
    """Table whose degree-d row is (free_rank, torsion) = rows[d]."""
    return ChowTable.from_rows(
        [DegreeRow(d, free, tors) for d, (free, tors) in enumerate(rows)], len(rows) - 1
    )


class TestTensorTables:
    def test_gcd_rule_through_smaller_bound(self):
        a = table((1, ()), (0, (2, 3)), (0, (4,)), (0, ()))
        b = table((1, ()), (1, (9,)))
        # Z/2 (x) Z/9 and Z/3 (x) Z/9 = Z/3 would land in degree 2, past b's bound
        assert polynomial_table([a, b], 1) == table((1, ()), (1, (2, 3, 9)))

    def test_coprime_and_prime_power_pairs(self):
        a = table((0, (4, 9)))
        b = table((0, (2, 3, 5)))
        assert polynomial_table([a, b], 0) == table((0, (2, 3)))

    @given(graded_groups(), graded_groups())
    def test_matches_labelled_tensor(self, a, b):
        bound = min(a.valid_through, b.valid_through)
        assert polynomial_table([to_table(a), to_table(b)], bound) == to_table(tensor(a, b))


generator_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), st.sampled_from((0, 1, 2, 3, 4, 6, 12))),
    max_size=3,
)


class TestPolynomialTable:
    def test_point(self):
        assert polynomial_table((), 2) == table((1, ()), (0, ()), (0, ()))

    def test_composite_coefficient_splits(self):
        assert polynomial_table([(2, 12)], 4) == table(
            (1, ()), (0, ()), (0, (4, 3)), (0, ()), (0, (4, 3))
        )

    @given(generator_lists, generator_lists, st.integers(min_value=0, max_value=8))
    def test_concatenation_is_tensor_product(self, a, b, bound):
        parts = [polynomial_table(a, bound), polynomial_table(b, bound)]
        assert polynomial_table(a + b, bound) == polynomial_table(parts, bound)

    @given(
        st.lists(graded_groups(), min_size=1, max_size=3),
        generator_lists,
        st.integers(min_value=0, max_value=5),
    )
    def test_table_factors_match_tensor_tables_fold(self, groups, generators, trim):
        tables = [to_table(g) for g in groups]
        bound = max(0, min(t.bound for t in tables) - trim)
        expected = polynomial_table(generators, bound)
        for t in tables:
            expected = polynomial_table([expected, t], min(expected.bound, t.bound))
        assert polynomial_table(tables + generators, bound) == expected

    def test_table_factor_below_bound_rejected(self):
        short = table((1, ()))
        with pytest.raises(ValueError, match="outside table bound"):
            polynomial_table([short], 1)
        with pytest.raises(ValueError, match="outside table bound"):
            polynomial_table([(1, 2), short], 1)


class TestEdgeErrors:
    def test_negative_bound_has_one_message(self):
        for factors in ([], [(1, 2)], [(1, 0)], [table((1, ()))]):
            with pytest.raises(ValueError, match="one row per degree"):
                polynomial_table(factors, -1)

    @pytest.mark.parametrize("generator", [(0, 2), (0, 0), (-1, 3), (1, -2)])
    def test_bad_generator_is_named(self, generator):
        with pytest.raises(ValueError, match=re.escape(f"generator {generator!r}")):
            polynomial_table([(1, 2), generator], 4)


# m: 0, 1, prime powers and composites
ORACLE_MS = (0, 0, 1, 2, 3, 4, 5, 7, 8, 9, 27, 31, 6, 12, 30, 36, 210)
oracle_generators = st.lists(
    st.tuples(st.integers(min_value=1, max_value=6), st.sampled_from(ORACLE_MS)), max_size=5
)
ORACLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def assert_same_table(got, expected):
    assert got == expected
    assert hash(got) == hash(expected)
    assert [hash(r) for r in got.rows] == [hash(r) for r in expected.rows]


class TestSeriesKernels:
    """The series kernels against the gcd kernels of ``oracles``, with which
    they share no code."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(graded_groups(max_bound=70), max_size=2),
        oracle_generators,
        st.integers(min_value=0, max_value=70),
        st.randoms(use_true_random=False),
    )
    def test_polynomial_table_matches_gcd_oracle(self, groups, generators, bound, rng):
        tables = [to_table(g) for g in groups]
        if tables:
            bound = min([bound] + [t.bound for t in tables])
        factors = tables + generators
        rng.shuffle(factors)
        assert_same_table(polynomial_table(factors, bound), gcd_polynomial_table(factors, bound))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ORACLE_PRIMES), graded_groups(max_bound=70, max_summands=6))
    def test_cyclic_power_table_matches_gcd_oracle(self, p, g):
        t = to_table(g)
        assert_same_table(cyclic_power_table(t, p), gcd_cyclic_power_table(t, p))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(ORACLE_PRIMES),
        oracle_generators,
        st.integers(min_value=0, max_value=70),
    )
    def test_cyclic_power_of_generator_tables_matches_gcd_oracle(self, p, generators, bound):
        t = gcd_polynomial_table(generators, bound)
        assert_same_table(cyclic_power_table(t, p), gcd_cyclic_power_table(t, p))


def naive_product(a, b, bound):
    """The first bound + 1 coefficients of the product of two series, by the
    convolution sum."""
    return [sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(bound + 1)]


def slot_bytes(a, b, bound):
    """The slot width in bytes that ``tables._mul`` packs with."""
    return (max(a).bit_length() + max(b).bit_length() + (bound + 1).bit_length() + 7) // 8


class TestKroneckerProduct:
    """``tables._mul`` against the convolution sum, on the ``array`` path
    (slots of at most 8 bytes) and the ``int.to_bytes`` path (wider)."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 28), st.data())
    def test_array_path_matches_convolution(self, bound, bits, data):
        series = st.lists(
            st.integers(min_value=0, max_value=2**bits), min_size=bound + 1, max_size=bound + 1
        )
        a, b = data.draw(series), data.draw(series)
        assert slot_bytes(a, b, bound) <= 8 and slot_bytes(a, a, bound) <= 8
        assert tables._mul(a, b, bound) == naive_product(a, b, bound)
        assert tables._mul(tuple(a), tuple(b), bound) == naive_product(a, b, bound)
        assert tables._mul(a, a, bound) == naive_product(a, a, bound)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 30), st.integers(65, 90), st.data())
    def test_wide_path_matches_convolution(self, bound, bits, data):
        big = st.integers(min_value=2**64, max_value=2**bits)
        rest = st.lists(st.integers(min_value=0, max_value=2**bits), min_size=bound, max_size=bound)
        a = data.draw(rest) + [data.draw(big)]  # a coefficient of 2^64 or more
        a.insert(data.draw(st.integers(min_value=0, max_value=bound)), a.pop())
        b = data.draw(rest) + [data.draw(st.integers(min_value=0, max_value=2**bits))]
        assert slot_bytes(a, b, bound) > 8
        assert tables._mul(a, b, bound) == naive_product(a, b, bound)
        assert tables._mul(a, a, bound) == naive_product(a, a, bound)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 30), st.integers(0, 3), st.integers(0, 90), st.data())
    def test_unit_operand_gives_a_copy_of_the_other(self, bound, extra, bits, data):
        # the unit series (1, 0, ..., 0) is the free series of every finite group
        unit = [1] + [0] * (bound + extra)  # extra > 0: longer than bound + 1
        other = data.draw(
            st.lists(st.integers(min_value=0, max_value=2**bits), min_size=bound + 1, max_size=bound + 1)
        )
        for u in (unit, tuple(unit)):
            for o in (other, tuple(other)):
                for got in (tables._mul(u, o, bound), tables._mul(o, u, bound)):
                    assert got == naive_product(u, o, bound) == other
                    assert type(got) is list and got is not other
            assert tables._mul(u, u, bound) == unit[: bound + 1]

    @pytest.mark.parametrize("width", range(1, 9))
    def test_slots_round_up_to_an_array_item(self, width):
        items = tables._ITEMS[width]()
        assert items.itemsize >= width
        assert all(items.itemsize <= size for size in (1, 2, 4, 8) if size >= width)
        assert tables._SLOTS[width] == items.itemsize


def polya_counts(s, p, bound):
    """``s^p + (p - 1) s(t^p)`` through ``bound``, the power by p - 1
    convolution products."""
    power = list(s[: bound + 1])
    for _ in range(p - 1):
        power = naive_product(power, s, bound)
    return [c + (p - 1) * s[d // p] if d % p == 0 else c for d, c in enumerate(power)]


def naive_polya(s, p, bound):
    counts = polya_counts(s, p, bound)
    assert all(c % p == 0 for c in counts)
    return [c // p for c in counts]


def polya_slot_bytes(s, p, bound):
    """The slot width in bytes that ``tables._polya`` packs s with once."""
    return (p * max(s).bit_length() + (p - 1) * (bound + 1).bit_length() + 7) // 8


# coefficient bits that keep every slot of s^p within 8 bytes through bound 30
PACKED_BITS = {2: 24, 3: 14, 5: 6, 7: 3}


class TestPolyaPower:
    """``tables._polya`` against p - 1 convolution products and Polya's
    formula: on one packed integer (slots of at most 8 bytes, or wider at
    p <= 3), by ``_mul`` steps (wider slots at p > 3, which every p = 101
    power needs), and on the unit series."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(PACKED_BITS)), st.integers(0, 30), st.data())
    def test_packed_path_matches_naive(self, p, bound, data):
        coefficients = st.integers(min_value=0, max_value=2 ** PACKED_BITS[p] - 1)
        s = data.draw(st.lists(coefficients, min_size=bound + 1, max_size=bound + 1))
        assert polya_slot_bytes(s, p, bound) <= 8
        assert tables._polya(s, p, bound) == naive_polya(s, p, bound)
        assert tables._polya(tuple(s), p, bound) == naive_polya(s, p, bound)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 101]), st.integers(0, 12), st.integers(65, 90), st.data())
    def test_wide_path_matches_naive(self, p, bound, bits, data):
        rest = st.lists(st.integers(min_value=0, max_value=2**bits), min_size=bound, max_size=bound)
        s = data.draw(rest) + [data.draw(st.integers(min_value=2**64, max_value=2**bits))]
        s.insert(data.draw(st.integers(min_value=0, max_value=bound)), s.pop())
        assert polya_slot_bytes(s, p, bound) > 8
        with mock.patch.object(tables, "_mul", wraps=tables._mul) as mul:
            assert tables._polya(s, p, bound) == naive_polya(s, p, bound)
        assert mul.called == (p > 3)  # a chain of one or two products packs once at any width

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
    def test_unit_series_is_its_own_orbit_count(self, p):
        for bound in (0, 1, p - 1, p, p + 1):
            unit = [1] + [0] * bound
            for s in (unit, tuple(unit)):
                got = tables._polya(s, p, bound)
                assert got == naive_polya(unit, p, bound) == unit
                assert type(got) is list and got is not s

    @pytest.mark.parametrize("big", [False, True], ids=["packed", "wide"])
    def test_a_count_p_does_not_divide_raises(self, big):
        # Polya counts of a prime p always divide; of p = 4 they need not
        s = [1, 1, 2**70 if big else 3, 1]
        assert (polya_slot_bytes(s, 4, 3) > 8) == big
        counts = polya_counts(s, 4, 3)
        d = next(d for d, c in enumerate(counts) if c % 4)
        message = f"Polya count {counts[d]} in degree {d} is not a multiple of 4"
        with pytest.raises(ArithmeticError, match=re.escape(message)):
            tables._polya(s, 4, 3)


class TestDegreeRow:
    @given(row_args)
    def test_counts_and_tuple_constructors_agree(self, args):
        d, f, t = args
        counted = DegreeRow.from_counts(d, f, Counter(t))
        listed = DegreeRow(d, f, tuple(t))
        assert counted == listed
        assert hash(counted) == hash(listed)
        assert counted.torsion == listed.torsion == tuple(sorted(t, key=torsion_sort_key))

    @given(row_args)
    def test_render_and_json_match_run_length_oracles(self, args):
        d, f, t = args
        row = DegreeRow.from_counts(d, f, Counter(t))
        assert render_row_value(row.free_rank, row.counts) == run_length_row_value(row)
        assert _json.torsion(row.counts) == run_length_torsion_json(row.torsion)

    @given(row_args)
    def test_pickle_round_trip(self, args):
        row = DegreeRow.from_counts(args[0], args[1], Counter(args[2]))
        copy = pickle.loads(pickle.dumps(row))
        assert copy == row and copy.counts == row.counts

    @given(st.lists(st.tuples(free_ranks, torsions), min_size=1, max_size=6))
    def test_json_round_trip(self, rows):
        t = table(*rows)
        assert table_from_json_obj(table_to_json_obj(t)) == t

    def test_json_reader_adds_repeated_orders(self):
        obj = table_to_json_obj(table((0, (2, 4))))
        obj["degrees"][0]["torsion"].append({"prime": 2, "exponent": 1, "multiplicity": 3})
        assert table_from_json_obj(obj).rows[0] == DegreeRow(0, 0, (2, 2, 2, 2, 4))

    def test_canonical_order_is_prime_then_exponent(self):
        assert DegreeRow(1, 0, (3, 4, 2)).torsion == (2, 4, 3)
        assert DegreeRow(1, 0, (5, 9, 3, 8)).counts == ((8, 1), (3, 1), (9, 1), (5, 1))

    def test_zero_multiplicities_dropped(self):
        row = DegreeRow.from_counts(3, 0, {2: 0, 9: 0})
        assert row == DegreeRow(3, 0, ()) and row.counts == () and row.is_zero()

    def test_repr_keeps_dataclass_text(self):
        assert repr(DegreeRow.from_counts(2, 1, {3: 1, 2: 2})) == (
            "DegreeRow(degree=2, free_rank=1, counts=((2, 2), (3, 1)))"
        )

    def test_repr_size_does_not_grow_with_multiplicity(self):
        assert len(repr(DegreeRow.from_counts(0, 0, {2: 10**6}))) < 100

    def test_immutable(self):
        row = DegreeRow(0, 1, (2,))
        with pytest.raises(FrozenInstanceError):
            row.free_rank = 2
        with pytest.raises(FrozenInstanceError):
            row.counts = ()

    @pytest.mark.parametrize("order", [0, 1, 6])
    def test_non_prime_power_order_rejected(self, order):
        with pytest.raises(ValueError):
            DegreeRow(1, 0, (2, order))
        with pytest.raises(ValueError):
            DegreeRow.from_counts(1, 0, {order: 1})

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            DegreeRow.from_counts(1, 0, {2: 3, 3: -1})

    @pytest.mark.parametrize("degree, free_rank", [(-1, 0), (0, -1)])
    def test_negative_degree_or_rank_rejected(self, degree, free_rank):
        with pytest.raises(ValueError):
            DegreeRow(degree, free_rank, ())
        with pytest.raises(ValueError):
            DegreeRow.from_counts(degree, free_rank, {})


class TestSharedRows:
    @given(st.lists(st.tuples(free_ranks, torsions), min_size=1, max_size=6))
    def test_series_rows_match_from_counts(self, rows):
        t = table(*rows)  # rows built by the checking constructors
        stored = pickle.loads(pickle.dumps(t))  # carries the series, not the rows
        assert stored._rows is None and stored == t and hash(stored) == hash(t)
        assert stored.rows == t.rows
        assert [hash(r) for r in stored.rows] == [hash(r) for r in t.rows]
        assert [r.counts for r in stored.rows] == [r.counts for r in t.rows]
        copy = pickle.loads(pickle.dumps(stored.rows))
        assert copy == t.rows

    def test_metadata_copy_keeps_the_checked_rows(self):
        t = table((1, ()), (0, (2, 3)), (2, (4, 4, 9)))
        fields = {
            "group": GL(2),
            "field": parse_field("Q"),
            "localization": Localization("at_prime", 3),
            "provenance": (EXACT, UPPER_BOUND),
        }
        for name, value in fields.items():  # t has the default metadata
            copy = t.with_metadata(**{name: value})
            assert copy.rows == t.rows
            assert copy == ChowTable.from_rows(t.rows, t.bound, **{name: value})
        copy = t.with_metadata(**fields)
        assert copy.free is t.free and copy.levels is t.levels
        assert copy.rows == t.rows and copy == ChowTable.from_rows(t.rows, t.bound, **fields)

    def test_new_rows_or_bound_are_still_checked(self):
        # with_metadata replaces metadata only: new rows go through from_rows
        t = table((1, ()), (0, (2,)), (0, ()))
        with pytest.raises(TypeError, match="'bound'"):
            t.with_metadata(bound=1)
        with pytest.raises(TypeError, match="'rows'"):
            t.with_metadata(rows=t.rows[::-1])
        with pytest.raises(ValueError, match="one row per degree"):
            ChowTable.from_rows(t.rows[::-1], t.bound)
        with pytest.raises(TypeError, match="bogus"):
            t.with_metadata(bogus=1)
        with pytest.raises(TypeError, match="bogus"):
            t.with_metadata(group=GL(1), bogus=1)


class TestStoredConstructor:
    """``ChowTable(bound, free, levels, ...)`` takes what the slots hold, so
    eq, hash, copying and pickling are ``Record``'s and round-trip a table."""

    @settings(max_examples=120, deadline=None)
    @given(
        group_exprs(),
        st.sampled_from([parse_field("C"), parse_field("F_7")]),
        st.integers(min_value=0, max_value=12),
        st.sampled_from([2, 3, 5]),
        st.sampled_from(["stored", "at_prime", "mod_p", "truncated"]),
        st.booleans(),
    )
    def test_slots_rebuild_copy_and_pickle_the_table(self, g, k, bound, p, view, read_rows):
        try:
            t = chow_model(g, k, bound)
        except UnsupportedError:
            assume(False)
        views = {"at_prime": localize_table(t, p), "mod_p": mod_p_table(t, p)}
        t = dict(views, stored=t, truncated=t.truncated(bound // 2))[view]
        if read_rows:
            t.rows  # a filled cache is neither compared nor copied
        rebuilt = ChowTable(t.bound, t.free, t.levels, t.group, t.field, t.localization, t.provenance)
        assert rebuilt == t and hash(rebuilt) == hash(t) and rebuilt.rows == t.rows
        for twin in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
            assert twin == t and hash(twin) == hash(t) and twin is not t and twin._rows is None
        for metadata in ({"provenance": (EXACT, UPPER_BOUND)}, {"group": GL(1), "field": None}):
            changed = t.with_metadata(**metadata)
            assert changed.free is t.free and changed.levels is t.levels
        for name in ("rows", "bound", "free", "levels", "bogus"):
            with pytest.raises(TypeError, match=f"'{name}'"):
                t.with_metadata(**{name: getattr(t, name, 1)})
