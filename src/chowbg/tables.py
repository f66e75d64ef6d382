"""Per-degree additive output tables.

A ``ChowTable`` records, for each degree 0..bound, the free rank and the
torsion of that degree.  A ``DegreeRow`` holds its torsion as canonical
``(order, multiplicity)`` pairs, ``row.counts``: one pair per distinct
prime-power order, sorted by (prime, exponent), so tables compare and
render deterministically and cost grows with the distinct orders, not with
the number of cyclic summands.  ``row.torsion`` is the expanded view, one
entry per summand, built on demand.  Rows are sorted and checked once, when
built from counts; views derived from canonical rows (the p-local and mod-p
tables) reuse them or build new ones from pairs that are canonical already,
and a table copy that changes only metadata shares its rows.  Tables
optionally carry the group, base field, localization and provenance of the
computation that produced them.
``polynomial_table`` is the Kunneth product of a list of factors:
one-generator rings ``Z[x]/(m x)``, given as ``(degree, m)`` pairs, and
whole tables (the wreath products); ``tensor_tables`` is its two-table
case.  ``cyclic_power_table`` is the codimension cyclic power that builds
wreath products.  Both run the gcd loop of ``_tensor_counts`` on
per-degree ``{order: multiplicity}`` dicts with order 0 standing for Z,
the cyclic power by square-and-multiply with ``_square_counts`` for the
squarings; that format never leaves this module.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, repeat
from math import gcd
from typing import TYPE_CHECKING

from ._intmath import factorint, prime_power_decompose, require_prime
from ._record import Record

if TYPE_CHECKING:  # only for annotations; avoids import cycles
    from .fields import FieldDescriptor
    from .groups import GroupExpr


class Localization(Record):
    __slots__ = ("kind", "prime")

    def __init__(self, kind: str, prime: int | None = None):
        # kind: "integral" | "at_prime" | "mod_p"
        if kind not in ("integral", "at_prime", "mod_p"):
            raise ValueError(f"unknown localization kind {kind!r}")
        if (prime is None) != (kind == "integral"):
            raise ValueError("prime required exactly for at_prime / mod_p")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "prime", prime)


INTEGRAL = Localization("integral")

# Provenance flags.  EXACT: the rows are the group's Chow groups on the nose.
# UPPER_BOUND: the rows contain the requested groups as a split summand.
# EXTRAPOLATED_FIELD: the base-field reduction rule was applied beyond the
# descriptors for which it is established.
EXACT = "exact"
UPPER_BOUND = "upper-bound"
EXTRAPOLATED_FIELD = "extrapolated-field"


@lru_cache(maxsize=4096)
def torsion_sort_key(order: int) -> tuple[int, int]:
    pe = prime_power_decompose(order)
    if pe is None:
        raise ValueError(f"torsion order must be a prime power, got {order}")
    return pe


class DegreeRow(Record):
    """One degree of a table: free rank and torsion (order, multiplicity) pairs.

    ``DegreeRow(degree, free_rank, torsion)`` takes the torsion as one order
    per summand; ``DegreeRow.from_counts`` takes an {order: multiplicity}
    mapping and drops zero multiplicities.  Both give the same canonical,
    immutable row.  ``DegreeRow._canonical`` takes pairs that are canonical
    already, such as a row's ``counts`` or a subsequence of them, and neither
    sorts nor checks them.
    """

    __slots__ = ("degree", "free_rank", "counts")

    def __init__(self, degree: int, free_rank: int, torsion):
        self._set(degree, free_rank, Counter(torsion))

    @classmethod
    def from_counts(cls, degree: int, free_rank: int, counts) -> "DegreeRow":
        row = cls.__new__(cls)
        row._set(degree, free_rank, counts)
        return row

    @classmethod
    def _canonical(cls, degree: int, free_rank: int, counts: tuple) -> "DegreeRow":
        row = cls.__new__(cls)
        _fill_row(row, degree, free_rank, counts)
        return row

    def _set(self, degree, free_rank, counts) -> None:
        if degree < 0 or free_rank < 0:
            raise ValueError("degree and free rank must be nonnegative")
        pairs = []
        for q in sorted(counts, key=torsion_sort_key):
            m = counts[q]
            if m < 0:
                raise ValueError(f"torsion multiplicity must be nonnegative, got {m}")
            if m:
                pairs.append((q, m))
        _fill_row(self, degree, free_rank, tuple(pairs))

    @property
    def torsion(self) -> tuple[int, ...]:
        """One prime-power order per summand, sorted by (prime, exponent)."""
        return tuple(chain.from_iterable(repeat(q, m) for q, m in self.counts))

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.counts

    def __reduce__(self):
        return (DegreeRow.from_counts, (self.degree, self.free_rank, dict(self.counts)))


# The slot descriptors store past ``Record.__setattr__``, faster than
# ``object.__setattr__`` by name.
_set_degree, _set_free_rank, _set_counts = (
    getattr(DegreeRow, name).__set__ for name in DegreeRow.__slots__
)


def _fill_row(row: DegreeRow, degree: int, free_rank: int, counts: tuple) -> None:
    _set_degree(row, degree)
    _set_free_rank(row, free_rank)
    _set_counts(row, counts)


class ChowTable(Record):
    __slots__ = ("rows", "bound", "group", "field", "localization", "provenance")

    def __init__(
        self,
        rows: tuple[DegreeRow, ...],
        bound: int,
        group: GroupExpr | None = None,
        field: FieldDescriptor | None = None,
        localization: Localization = INTEGRAL,
        provenance: tuple[str, ...] = (EXACT,),
    ):
        rows = tuple(rows)
        if bound < 0 or [r.degree for r in rows] != list(range(bound + 1)):
            raise ValueError("table must have one row per degree 0..bound")
        setattr_ = object.__setattr__
        setattr_(self, "rows", rows)
        setattr_(self, "bound", bound)
        setattr_(self, "group", group)
        setattr_(self, "field", field)
        setattr_(self, "localization", localization)
        setattr_(self, "provenance", provenance)

    def row(self, degree: int) -> DegreeRow:
        if not 0 <= degree <= self.bound:
            raise ValueError(f"degree {degree} outside table bound {self.bound}")
        return self.rows[degree]

    def with_metadata(self, **kw) -> "ChowTable":
        """A copy with the given fields replaced; an unknown field is a TypeError.

        New rows or a new bound are checked as in the constructor; a copy
        that replaces only metadata shares the rows, which were checked."""
        if not kw.keys() <= _METADATA:  # the constructor checks rows and names
            for name in self.__slots__:
                kw.setdefault(name, getattr(self, name))
            return ChowTable(**kw)
        copy = ChowTable.__new__(ChowTable)
        for name in self.__slots__:
            object.__setattr__(copy, name, kw.get(name, getattr(self, name)))
        return copy


_METADATA = frozenset(ChowTable.__slots__) - {"rows", "bound"}


def _row_counts(row: DegreeRow) -> dict[int, int]:
    """{order: multiplicity} of one row, with order 0 counting the free rank."""
    counts = dict(row.counts)
    if row.free_rank:
        counts[0] = row.free_rank
    return counts


def tensor_tables(a: ChowTable, b: ChowTable) -> ChowTable:
    """Graded tensor product over Z of two integral tables, through the
    smaller bound: ``polynomial_table([a, b], min(a.bound, b.bound))``."""
    return polynomial_table([a, b], min(a.bound, b.bound))


def polynomial_table(factors, bound: int) -> ChowTable:
    """Integral table through ``bound`` of the tensor product of the factors,
    folded one at a time: a ``(degree, m)`` generator is the ring
    ``Z[x]/(m x)``, with m = 0 for ``Z[x]``, and a ``ChowTable`` of bound at
    least ``bound`` enters as its rows; no factors give the point.

    ``Z/a (x) Z/b = Z/gcd(a, b)`` with the convention gcd(0, x) = x; coprime
    pairs contribute nothing.  There is no Tor correction: this models the
    Chow Kunneth rule, which is an isomorphism for the spaces treated here.
    So a monomial in the generators is free if it avoids every generator
    with m >= 2, and otherwise cyclic of order the gcd of the coefficients
    it meets.
    """
    counts = [{0: 1} if d == 0 else {} for d in range(bound + 1)]
    for f in factors:
        if isinstance(f, ChowTable):
            factor = [(d, _row_counts(f.row(d))) for d in range(bound + 1)]
        else:
            degree, m = f
            x = {0: 1} if m == 0 else {p**e: 1 for p, e in factorint(m)}
            factor = [(0, {0: 1})] + [(d, x) for d in range(degree, bound + 1, degree)]
        counts = _tensor_counts(counts, factor, bound)
    return _table_from_counts(counts)


def _tensor_counts(left, right, bound: int) -> list[dict[int, int]]:
    """Kunneth product of {order: multiplicity} counts through ``bound``,
    order 0 standing for Z: ``left`` has one dict per degree, ``right`` is
    (degree, dict) pairs in increasing degree.  Coprime pairs are dropped."""
    out: list[dict[int, int]] = [{} for _ in range(bound + 1)]
    for i, x in enumerate(left):
        if not x:
            continue
        for j, y in right:
            if i + j > bound:
                break
            acc = out[i + j]
            for p, m in x.items():
                for q, n in y.items():
                    h = gcd(p, q)
                    if h != 1:
                        acc[h] = acc.get(h, 0) + m * n
    return out


def _square_counts(x: list[dict[int, int]], bound: int) -> list[dict[int, int]]:
    """``_tensor_counts`` of per-degree counts with themselves through
    ``bound``: each unordered pair of degrees i < j is visited once and
    counted twice, the product being commutative."""
    out: list[dict[int, int]] = [{} for _ in range(bound + 1)]
    for i in range(bound // 2 + 1):
        a = x[i]
        if not a:
            continue
        for j in range(i, bound - i + 1):
            b = x[j]
            if not b:
                continue
            w = 1 if i == j else 2
            acc = out[i + j]
            for p, m in a.items():
                for q, n in b.items():
                    h = gcd(p, q)
                    if h != 1:
                        acc[h] = acc.get(h, 0) + w * m * n
    return out


def _power_counts(factor, p: int, bound: int) -> list[dict[int, int]]:
    """The p-fold Kunneth power of ``factor``, (degree, counts) pairs in
    increasing degree, through ``bound``, by square-and-multiply over the
    bits of p (Knuth, TAOCP vol. 2, 4.6.3): about log2(p) squarings and
    one product with ``factor`` per further set bit, where the repeated
    product takes p.  It holds because the gcd rule is associative and
    commutative and a dropped gcd of 1 stays 1 in every later product."""
    out = [{} for _ in range(bound + 1)]
    for d, counts in factor:
        out[d] = counts
    for bit in bin(p)[3:]:  # p >= 2, so at least one squaring builds new dicts
        out = _square_counts(out, bound)
        if bit == "1":
            out = _tensor_counts(out, factor, bound)
    return out


def cyclic_power_table(table: ChowTable, p: int) -> ChowTable:
    """Cyclic power in codimension grading on per-row (order -> multiplicity)
    counts: the rows of the labelled reference
    ``to_table(cyclic.cyclic_power_codim(from_table(table), p))``.

    A class is a (degree e, order q) pair with multiplicity m, q = 0 free;
    S is the classes with p | q.  Ordered p-tuples of summands are counted
    by the p-fold Kunneth power over (degree sum, gcd), taken by squaring
    (``_power_counts``), and Burnside's lemma turns them into rotation
    orbits: (tuples + (p - 1) * constant tuples) / p, since each
    nontrivial rotation fixes just the constant tuples.  The constant tuple
    of a class in S is dropped, and gamma (``Z/(p q)`` in degree p e) and
    alpha (``Z/p`` in every degree above p e) take its place.  A gcd of
    prime powers is a prime power, 0 or 1, so no CRT split is needed.
    """
    require_prime(p)
    bound = table.bound
    factor = [(row.degree, _row_counts(row)) for row in table.rows]
    out = _power_counts(factor, p, bound)

    classes = [(e, q, m) for e, counts in factor for q, m in counts.items()]
    for e, q, m in classes:
        if p * e <= bound:  # (p - 1) m fixed points; p m fewer where S drops them
            out[p * e][q] += -m if q % p == 0 else (p - 1) * m
    for d, here in enumerate(out):
        for g, n in here.items():
            orbits, rest = divmod(n, p)
            if rest:
                raise ArithmeticError(
                    f"Burnside count {n} in degree {d} with gcd {g} is not a multiple of {p}"
                )
            here[g] = orbits
    for e, q, m in classes:
        if q % p == 0:
            if p * e <= bound:
                out[p * e][p * q] = out[p * e].get(p * q, 0) + m  # gamma
            for t in range(p * e + 1, bound + 1):
                out[t][p] = out[t].get(p, 0) + m  # alpha
    return _table_from_counts(out)


def _table_from_counts(out: list[dict[int, int]]) -> ChowTable:
    """Table whose degree-d row has the {order: multiplicity} counts ``out[d]``,
    order 0 being the free rank."""
    rows = []
    for d, counts in enumerate(out):
        free = counts.pop(0, 0)
        rows.append(DegreeRow.from_counts(d, free, counts))
    return ChowTable(rows=tuple(rows), bound=len(out) - 1)
