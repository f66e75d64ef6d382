"""Per-degree additive output tables, stored as generating series.

A ``ChowTable`` through degree ``bound`` is stored as integer series over
the degrees 0..bound: ``free``, the free rank of each degree, and
``levels``, one ``(l, (G_{l,1}, ..., G_{l,A}))`` pair per prime l with
torsion, where G_{l,a} counts the free rank plus the torsion summands of
l-valuation at least a and A is the largest exponent of l that occurs.
This is the one stored form from the kernels to the ``chow_model`` memo to
the p-local and mod-p views: a view keeps or sums levels, a smaller bound
truncates the series, and a table factor of a Kunneth product enters as
its series.  Equality, hashing and pickling read the bound, the series and
the metadata (group, base field, localization, provenance).

``torsion_counts`` reads each degree's torsion off the series as canonical
``(order, multiplicity)`` pairs: one pair per distinct prime-power order,
sorted by (prime, exponent), so tables render deterministically and cost
grows with the distinct orders, not with the number of cyclic summands.
``rows`` is the per-degree view, one ``DegreeRow`` per degree holding those
pairs as ``row.counts``; nothing in the package reads it on the way to an
answer or its output, so the view and the tables built from rows run in
``_rows``, compiled on first use.

The kernels ``polynomial_table`` (the Kunneth product) and
``cyclic_power_table`` (the wreath step) work on the series, so their cost
grows with the distinct (prime, exponent) levels and the bound, not with the
pairs of classes.  The views ``localize_table`` and ``mod_p_table`` and the
truncation live here too, so the series are rebuilt only in this module;
outside it they are only read (``free``, ``levels``).
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import lru_cache, partial
from itertools import accumulate, chain, repeat
from operator import sub
from sys import byteorder
from typing import TYPE_CHECKING

from ._intmath import factorint, require_prime
from ._record import Record

if TYPE_CHECKING:  # only for annotations; avoids import cycles
    from .fields import FieldDescriptor
    from .groups import GroupExpr


class Localization(Record):
    __slots__ = ("kind", "prime")

    def __init__(self, kind: str, prime: int | None = None):
        if kind not in ("integral", "at_prime", "mod_p"):
            raise ValueError(f"unknown localization kind {kind!r}")
        if (prime is None) != (kind == "integral"):
            raise ValueError("prime required exactly for at_prime / mod_p")
        super().__init__(kind, prime)


INTEGRAL = Localization("integral")

# Provenance flags.  EXACT: the rows are the group's Chow groups on the nose.
# UPPER_BOUND: the rows contain the requested groups as a split summand.
# EXTRAPOLATED_FIELD: the base-field reduction rule was applied beyond the
# descriptors for which it is established.
EXACT = "exact"
UPPER_BOUND = "upper-bound"
EXTRAPOLATED_FIELD = "extrapolated-field"


def torsion_sort_key(order: int) -> tuple[int, int]:
    from . import _rows

    return _rows.torsion_sort_key(order)


class DegreeRow(Record):
    """One degree of a table: free rank and torsion (order, multiplicity) pairs.

    ``DegreeRow(degree, free_rank, torsion)`` takes the torsion as one order
    per summand; ``DegreeRow.from_counts`` takes an {order: multiplicity}
    mapping and drops zero multiplicities.  Both give the same canonical,
    immutable row.
    """

    __slots__ = ("degree", "free_rank", "counts")

    def __init__(self, degree: int, free_rank: int, torsion):
        self._set(degree, free_rank, Counter(torsion))

    @classmethod
    def from_counts(cls, degree: int, free_rank: int, counts) -> "DegreeRow":
        row = cls.__new__(cls)
        row._set(degree, free_rank, counts)
        return row

    def _set(self, degree, free_rank, counts) -> None:
        from . import _rows

        _rows.set_row(self, degree, free_rank, counts)

    @property
    def torsion(self) -> tuple[int, ...]:
        """One prime-power order per summand, sorted by (prime, exponent)."""
        return tuple(chain.from_iterable(repeat(q, m) for q, m in self.counts))

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.counts

    def __reduce__(self):
        return (DegreeRow.from_counts, (self.degree, self.free_rank, dict(self.counts)))


class ChowTable(Record):
    """Additive table through degree ``bound``: the series ``free`` and
    ``levels`` (see the module docstring) and the metadata.

    ``ChowTable(rows, bound, ...)`` checks one row per degree 0..bound and
    converts the rows to series; ``rows`` and ``row(d)`` read the cached
    per-degree view, which the first read builds from the series.
    """

    __slots__ = ("bound", "free", "levels", "group", "field", "localization", "provenance", "_rows")

    def __init__(
        self,
        rows: tuple[DegreeRow, ...],
        bound: int,
        group: GroupExpr | None = None,
        field: FieldDescriptor | None = None,
        localization: Localization = INTEGRAL,
        provenance: tuple[str, ...] = (EXACT,),
    ):
        from . import _rows

        rows = tuple(rows)
        free, levels = _rows.series_of_rows(rows, bound)
        super().__init__(bound, free, levels, group, field, localization, provenance, rows)

    @classmethod
    def _stored(cls, bound, free, levels, group, field, localization, provenance) -> "ChowTable":
        """A table of series already in the stored form, unchecked, its rows unbuilt."""
        table = cls.__new__(cls)
        _set_bound(table, bound)  # the slot setters directly: ``Record.__init__``'s loop is slower
        _set_free(table, free)
        _set_levels(table, levels)
        _set_group(table, group)
        _set_field(table, field)
        _set_localization(table, localization)
        _set_provenance(table, provenance)
        _set_rows(table, None)
        return table

    @property
    def rows(self) -> tuple[DegreeRow, ...]:
        """One row per degree 0..bound, built on first read and cached."""
        from . import _rows

        return _rows.rows(self)

    def row(self, degree: int) -> DegreeRow:
        if not 0 <= degree <= self.bound:
            raise ValueError(f"degree {degree} outside table bound {self.bound}")
        return self.rows[degree]

    def with_metadata(self, **kw) -> "ChowTable":
        """A copy with the given fields replaced; an unknown field is a TypeError.

        New rows or a new bound are checked and converted as in the
        constructor; a copy that replaces only metadata shares the series."""
        if not kw.keys() <= _METADATA:  # the constructor checks rows and names
            for name in _FIELDS:
                kw.setdefault(name, getattr(self, name))
            return ChowTable(**kw)
        return ChowTable._stored(
            self.bound,
            self.free,
            self.levels,
            kw.get("group", self.group),
            kw.get("field", self.field),
            kw.get("localization", self.localization),
            kw.get("provenance", self.provenance),
        )

    def truncated(self, bound: int) -> "ChowTable":
        """The table through degree ``bound`` of a graded table: this table
        at its own bound, else a new one with the series cut after degree
        ``bound`` and the same metadata, in one pass over the sorted levels."""
        if bound == self.bound:
            return self
        if not 0 <= bound < self.bound:
            raise ValueError(f"degree {bound} outside table bound {self.bound}")
        free = self.free[: bound + 1]
        levels = _stored_levels(free, [(l, [s[: bound + 1] for s in lv]) for l, lv in self.levels])
        return ChowTable._stored(
            bound, free, levels, self.group, self.field, self.localization, self.provenance
        )

    def __reduce__(self):
        return (ChowTable._stored, self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _FIELDS)
        return f"ChowTable({fields})"


_FIELDS = ("rows", "bound", "group", "field", "localization", "provenance")  # constructor order
_METADATA = frozenset(_FIELDS[2:])
_set_bound, _set_free, _set_levels, _set_group = ChowTable._setters[:4]
_set_field, _set_localization, _set_provenance, _set_rows = ChowTable._setters[4:]


def _stored_levels(free: tuple, levels: list) -> tuple:
    """``levels``, (prime, list of level tuples) pairs by increasing prime, in
    the stored form: the top levels that equal ``free`` (no summand of that
    exponent) and then primes without levels dropped, so that equal tables
    store equal series."""
    out = []
    for l, lv in levels:
        while lv and lv[-1] == free:
            lv.pop()
        if lv:
            out.append((l, tuple(lv)))
    return tuple(out)


def torsion_counts(table: ChowTable) -> list[tuple[tuple[int, int], ...]]:
    """The torsion of each degree 0..bound as canonical ``(order,
    multiplicity)`` pairs, read off the series: the count of Z/l^a in degree
    d is G_{l,a}[d] - G_{l,a+1}[d], with G_{l,A+1} = ``free``.  The pairs are
    added in (prime, exponent) order, so they are canonical as built."""
    free = table.free
    counts = [()] * len(free)
    for l, lv in table.levels:
        for a, (g, h) in enumerate(zip(lv, lv[1:] + (free,)), 1):
            q = l**a
            for d, m in enumerate(map(sub, g, h)):
                if m:
                    counts[d] += ((q, m),)
    return counts


def localize_table(table: ChowTable, p: int) -> ChowTable:
    """Keep the free part and the p-power torsion of every degree: the
    series ``free`` and the levels of p."""
    at_p = next((e for e in table.levels if e[0] == p), None)
    return _view(table, "at_prime", p, table.free, (at_p,) if at_p else ())


def mod_p_table(table: ChowTable, p: int) -> ChowTable:
    """F_p-dimension of each degree, reported in the free-rank column: the
    free rank plus the number of p-power torsion summands, which is the
    level G_{p,1} of the series, or ``free`` without p-power torsion."""
    g1 = next((lv[0] for l, lv in table.levels if l == p), table.free)
    return _view(table, "mod_p", p, g1, ())


_localizations: dict = {}  # (kind, p) -> the one Localization(kind, p)


def _view(table: ChowTable, kind: str, p: int, free: tuple, levels: tuple) -> ChowTable:
    """The table with the given series, localized by the one
    ``Localization(kind, p)``, made when p first passes ``require_prime``."""
    localization = _localizations.get((kind, p))
    if localization is None:
        require_prime(p)
        localization = _localizations.setdefault((kind, p), Localization(kind, p))
    return ChowTable._stored(
        table.bound, free, levels, table.group, table.field, localization, table.provenance
    )


def _from_series(free: list[int], levels: dict, bound: int) -> ChowTable:
    """The integral table, without metadata, of kernel series."""
    free = tuple(free)
    levels = _stored_levels(free, sorted((l, [tuple(s) for s in lv]) for l, lv in levels.items()))
    return ChowTable._stored(bound, free, levels, None, None, INTEGRAL, (EXACT,))


# ---------------------------------------------------------------------------
# the kernels, on per-prime generating series
#
# While a kernel works, ``free`` is a list and ``levels`` a dict from each
# prime l to its list of levels, entry a - 1 being G_{l,a}.  The levels of a
# prime run 1..A with no gap, and a missing level equals ``free``.  Under
# the gcd rule a pair of summands has l-valuation the smaller of the two, a
# free summand counting as infinite, so every series of a Kunneth product is
# the product of the factors' series of the same level.


def polynomial_table(factors, bound: int) -> ChowTable:
    """Integral table through ``bound`` of the tensor product of the factors,
    folded one at a time: a ``(degree, m)`` generator is the ring
    ``Z[x]/(m x)``, with m = 0 for ``Z[x]``, and a ``ChowTable`` of bound at
    least ``bound`` enters as its series; no factors give the point.  A
    generator of degree above ``bound`` is skipped: none of its positive
    powers reaches the table.

    ``Z/a (x) Z/b = Z/gcd(a, b)`` with the convention gcd(0, x) = x; coprime
    pairs contribute nothing.  There is no Tor correction: this models the
    Chow Kunneth rule, which is an isomorphism for the spaces treated here.
    So a monomial in the generators is free if it avoids every generator
    with m >= 2, and otherwise cyclic of order the gcd of the coefficients
    it meets.  On the series a generator ``(d, m)`` is a factor
    ``1 / (1 - t^d)``, a stride-d prefix sum: of ``free`` and every level
    when m = 0, of the levels (l, a) with l^a | m otherwise; a table factor
    multiplies each series by its own, truncated at ``bound``.
    """
    if bound < 0:
        raise ValueError("table must have one row per degree 0..bound")
    n = bound + 1
    free = [1] + [0] * bound
    levels: dict[int, list[list[int]]] = {}
    for f in factors:
        if isinstance(f, ChowTable):
            if f.bound < bound:
                raise ValueError(f"degree {bound} outside table bound {f.bound}")
            other = {l: [s[:n] for s in lv] for l, lv in f.levels}
            free, levels = _product(free, levels, f.free[:n], other, bound)
            continue
        degree, m = f
        if degree < 1 or m < 0:
            raise ValueError(f"generator {f!r} needs degree >= 1 and m >= 0")
        if degree > bound:
            continue
        if m == 0:
            for s in chain([free], *levels.values()):
                _stride_sum(s, degree)
        else:
            for l, e in factorint(m):
                for s in _levels(levels, l, e, free)[:e]:
                    _stride_sum(s, degree)
    return _from_series(free, levels, bound)


def cyclic_power_table(table: ChowTable, p: int) -> ChowTable:
    """Cyclic power in codimension grading on the series of the table: the
    rows of the labelled reference
    ``to_table(cyclic.cyclic_power_codim(from_table(table), p))``.

    A class is a (degree e, order q) summand, q = 0 free; S is the classes
    with p | q.  Rotation orbits of p-tuples of summands are counted by
    Polya's ``(s^p + (p - 1) s(t^p)) / p`` on each series, the power taken
    by square-and-multiply over the bits of p (Knuth, TAOCP vol. 2, 4.6.3),
    since each nontrivial rotation fixes just the constant tuples.  The
    constant tuple of a class in S is dropped, and gamma (``Z/(p q)`` in
    degree p e) and alpha (``Z/p`` in every degree above p e) take its place:
    a free gamma replaces a free constant tuple, so only a gamma of
    ``Z/p^b`` changes a level, G_{p,b+1} in degree p e, and alpha adds the
    count of S-classes of degree e to G_{p,1} in every degree above p e.
    """
    require_prime(p)
    bound = table.bound
    free, levels = table.free, dict(table.levels)
    at_p = levels.get(p, ())
    s_classes = at_p[0] if at_p else free  # free plus p-power summands per degree
    exact = [  # the Z/p^b, b = 1..A, in the degrees e with p e <= bound
        [g[e] - h[e] for e in range(bound // p + 1)] for g, h in zip(at_p, at_p[1:] + (free,))
    ]
    out_free = _polya(free, p, bound)
    out = {l: [_polya(s, p, bound) for s in lv] for l, lv in levels.items()}
    for b, counts in enumerate(exact, 1):
        if any(counts):
            gamma = _levels(out, p, b + 1, out_free)[b]
            for e, m in enumerate(counts):
                gamma[p * e] += m
    if bound:
        alpha = _levels(out, p, 1, out_free)[0]
        below = 0  # S-classes of degree e with p e < t
        for t in range(1, bound + 1):
            if (t - 1) % p == 0:
                below += s_classes[(t - 1) // p]
            alpha[t] += below
    return _from_series(out_free, out, bound)


def _levels(levels: dict, l: int, a: int, free: list[int]) -> list[list[int]]:
    """The level list of the prime l, extended through level a with copies
    of ``free``."""
    lv = levels.setdefault(l, [])
    while len(lv) < a:
        lv.append(free.copy())
    return lv


def _stride_sum(s: list[int], d: int) -> None:
    """Multiply the series s in place by ``1 / (1 - t^d)``: s[n] += s[n - d]."""
    for r in range(min(d, len(s))):
        s[r::d] = accumulate(s[r::d])


def _product(free, levels, free2, levels2, bound: int) -> tuple[list[int], dict]:
    """Kunneth product of two tables in series form, level by level."""
    out = {}
    for l in levels.keys() | levels2.keys():
        a, b = levels.get(l, ()), levels2.get(l, ())
        out[l] = [
            _mul(a[i] if i < len(a) else free, b[i] if i < len(b) else free2, bound)
            for i in range(max(len(a), len(b)))
        ]
    return _mul(free, free2, bound), out


def _mul(a, b, bound: int) -> list[int]:
    """The first bound + 1 coefficients of the product of two series of
    bound + 1 nonnegative coefficients, by one big-integer product
    (Kronecker substitution): each series is packed into an integer, one
    slot per degree, with slots wide enough for every coefficient of the
    product.  Slots of at most 8 bytes pack through ``array``, wider ones
    through ``int.to_bytes`` (counts reach 2^64 at large bounds)."""
    n = bound + 1
    width = (max(a).bit_length() + max(b).bit_length() + n.bit_length() + 7) // 8
    if width > 8:
        x = _pack(a, width)
        y = x if b is a else _pack(b, width)
        buf = (x * y).to_bytes(2 * n * width, "little")
        return [int.from_bytes(buf[i : i + width], "little") for i in range(0, n * width, width)]
    items = _items(width)
    x = int.from_bytes(_little(items(a)), "little")
    y = x if b is a else int.from_bytes(_little(items(b)), "little")
    out = items()
    out.frombytes(memoryview((x * y).to_bytes(2 * n * out.itemsize, "little"))[: n * out.itemsize])
    return _little(out).tolist()


@lru_cache(maxsize=None)
def _items(width: int):
    """The ``array`` constructor of the unsigned typecode with the smallest
    item of at least ``width`` <= 8 bytes ('Q' has 8 everywhere)."""
    code = next(code for code in "BHILQ" if array(code).itemsize >= width)
    return partial(array, code)


def _little(items):
    """The array with its items in little-endian byte order, in place."""
    if byteorder == "big":
        items.byteswap()
    return items


def _pack(a, width: int) -> int:
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in a]), "little")


def _polya(s, p: int, bound: int) -> list[int]:
    """Rotation orbits of p-tuples, ``(s^p + (p - 1) s(t^p)) / p`` through
    ``bound``; a count that p does not divide raises ArithmeticError."""
    out = s
    for bit in bin(p)[3:]:  # p >= 2, so at least one squaring builds a new list
        out = _mul(out, out, bound)
        if bit == "1":
            out = _mul(out, s, bound)
    for e in range(bound // p + 1):
        out[p * e] += (p - 1) * s[e]
    for d, c in enumerate(out):
        orbits, rest = divmod(c, p)
        if rest:
            raise ArithmeticError(f"Polya count {c} in degree {d} is not a multiple of {p}")
        out[d] = orbits
    return out
