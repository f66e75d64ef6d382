from hypothesis import given

from chowbg.graded import tensor, to_table
from chowbg.tables import ChowTable, DegreeRow, tensor_tables
from strategies import graded_groups


def table(*rows):
    """Table whose degree-d row is (free_rank, torsion) = rows[d]."""
    return ChowTable(
        rows=tuple(DegreeRow(d, free, tors) for d, (free, tors) in enumerate(rows)),
        bound=len(rows) - 1,
    )


class TestTensorTables:
    def test_gcd_rule_through_smaller_bound(self):
        a = table((1, ()), (0, (2, 3)), (0, (4,)), (0, ()))
        b = table((1, ()), (1, (9,)))
        # Z/2 (x) Z/9 and Z/3 (x) Z/9 = Z/3 would land in degree 2, past b's bound
        assert tensor_tables(a, b) == table((1, ()), (1, (2, 3, 9)))

    def test_coprime_and_prime_power_pairs(self):
        a = table((0, (4, 9)))
        b = table((0, (2, 3, 5)))
        assert tensor_tables(a, b) == table((0, (2, 3)))

    @given(graded_groups(), graded_groups())
    def test_matches_labelled_tensor(self, a, b):
        assert tensor_tables(to_table(a), to_table(b)) == to_table(tensor(a, b))
