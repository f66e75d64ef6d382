"""Per-degree additive output tables, stored as generating series.

A ``ChowTable`` through degree ``bound`` is stored as integer series over
the degrees 0..bound: ``free``, the free rank of each degree, and
``levels``, one ``(l, (G_{l,1}, ..., G_{l,A}))`` pair per prime l with
torsion, where G_{l,a} counts the free rank plus the torsion summands of
l-valuation at least a and A is the largest exponent of l that occurs.
This is the one stored form, and what ``ChowTable(bound, free, levels,
...)`` takes, from the kernels to the ``chow_model`` memo to the p-local
and mod-p views: a view keeps or sums levels, a smaller bound truncates the
series, and a table factor of a Kunneth product enters as its series.
Equality, hashing, repr and pickling are ``Record``'s and read the bound,
the series and the metadata (group, base field, localization, provenance).

``torsion_counts`` reads each degree's torsion off the series as canonical
``(order, multiplicity)`` pairs: one pair per distinct prime-power order,
sorted by (prime, exponent), so tables render deterministically and cost
grows with the distinct orders, not with the number of cyclic summands.
``rows`` is the per-degree view, one ``DegreeRow`` per degree holding those
pairs as ``row.counts``; no answer or output reads it, so the view and
``ChowTable.from_rows``, the checked reader of rows, run in ``_rows``.

The kernels ``polynomial_table`` (the Kunneth product) and
``cyclic_power_table`` (the wreath step), which build their table with its
metadata, and ``cut``, behind the truncation and the views, work on the
series, so their cost grows with the distinct (prime, exponent) levels and
the bound, not with the pairs of classes.  The unit series (1, 0, ..., 0),
the ``free`` of every finite group, multiplies and Polya-powers to a copy;
a Polya power of another series packs it once (see ``_polya``).
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import partial
from itertools import accumulate, chain, repeat
from operator import add, sub
from sys import byteorder

from ._intmath import factorint, require_prime
from ._record import Record


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
    ``levels`` in the stored form (see the module docstring), taken
    unchecked, and the metadata.  ``from_rows`` checks rows on the way in;
    ``rows`` and ``row(d)`` read the per-degree view, cached on first read."""

    __slots__ = ("bound", "free", "levels", "group", "field", "localization", "provenance", "_rows")

    def __init__(
        self, bound, free, levels, group=None, field=None, localization=INTEGRAL, provenance=(EXACT,)
    ):
        _set_bound(self, bound)  # the slot setters directly: ``Record.__init__``'s loop is slower
        _set_free(self, free)
        _set_levels(self, levels)
        _set_group(self, group)
        _set_field(self, field)
        _set_localization(self, localization)
        _set_provenance(self, provenance)
        _set_rows(self, None)

    @classmethod
    def from_rows(
        cls, rows, bound, group=None, field=None, localization=INTEGRAL, provenance=(EXACT,)
    ) -> "ChowTable":
        """The table of one ``DegreeRow`` per degree 0..bound, checked and
        converted to series once; its ``rows`` are the rows given."""
        from . import _rows

        return _rows.from_rows(rows, bound, group, field, localization, provenance)

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
        """A copy with the given metadata replaced, sharing the series; any
        other name is a TypeError."""
        group, field = kw.pop("group", self.group), kw.pop("field", self.field)
        loc, prov = kw.pop("localization", self.localization), kw.pop("provenance", self.provenance)
        return ChowTable(self.bound, self.free, self.levels, group, field, loc, prov, **kw)

    def truncated(self, bound: int) -> "ChowTable":
        """The table through degree ``bound``: this table, or its cut series."""
        if bound == self.bound:
            return self
        if not 0 <= bound < self.bound:
            raise ValueError(f"degree {bound} outside table bound {self.bound}")
        s = self
        return cut(bound, s.free, s.levels, s.group, s.field, s.localization, s.provenance)


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
    t, at_p = table, shared_localization("at_prime", p)
    return cut(t.bound, t.free, t.levels, t.group, t.field, at_p, t.provenance, True)


def mod_p_table(table: ChowTable, p: int) -> ChowTable:
    """F_p-dimension of each degree, reported in the free-rank column: the
    free rank plus the number of p-power torsion summands, which is the
    level G_{p,1} of the series, or ``free`` without p-power torsion."""
    t, mod_p = table, shared_localization("mod_p", p)
    return cut(t.bound, t.free, t.levels, t.group, t.field, mod_p, t.provenance, True)


_localizations: dict = {}  # (kind, p) -> the one Localization(kind, p)


def shared_localization(kind: str, p: int) -> Localization:
    """The one ``Localization(kind, p)``, made when p first passes ``require_prime``."""
    localization = _localizations.get((kind, p))
    if localization is None:
        require_prime(p)
        localization = _localizations.setdefault((kind, p), Localization(kind, p))
    return localization


def cut(bound, free, levels, group, field, localization, provenance, view=False) -> ChowTable:
    """The table through ``bound`` of stored series reaching it, cut after ``bound`` in
    the stored form; with ``view``, only the series the localization's view keeps."""
    if view:
        p, kept = localization.prime, ()
        for l, lv in levels:
            if l == p:
                kept = lv
        if localization.kind == "mod_p":
            free, levels = kept[0] if kept else free, ()
        else:
            levels = ((p, kept),) if kept else ()
    if len(free) > bound + 1:
        free = free[: bound + 1]
        levels = _stored_levels(free, [(l, [s[: bound + 1] for s in lv]) for l, lv in levels])
    return ChowTable(bound, free, levels, group, field, localization, provenance)


def _from_series(free: list[int], levels: dict, bound: int, *metadata) -> ChowTable:
    """The table of kernel series with the given metadata (none: integral, exact)."""
    free = tuple(free)
    levels = _stored_levels(free, sorted((l, [tuple(s) for s in lv]) for l, lv in levels.items()))
    return ChowTable(bound, free, levels, *metadata)


# ---------------------------------------------------------------------------
# the kernels, on per-prime generating series
#
# While a kernel works, ``free`` is a list and ``levels`` a dict from each
# prime l to its list of levels, entry a - 1 being G_{l,a}.  The levels of a
# prime run 1..A with no gap, and a missing level equals ``free``.  Under
# the gcd rule a pair of summands has l-valuation the smaller of the two, a
# free summand counting as infinite, so every series of a Kunneth product is
# the product of the factors' series of the same level.


def polynomial_table(factors, bound: int, *metadata) -> ChowTable:
    """Table through ``bound``, with the metadata given (none: integral,
    exact), of the tensor product of the factors, folded one at a time: a
    ``(degree, m)`` generator is the ring ``Z[x]/(m x)``, with m = 0 for
    ``Z[x]``, and a ``ChowTable`` of bound at least ``bound`` enters as its
    series; no factors give the point.  A generator of degree above ``bound``
    is skipped: none of its positive powers reaches the table.

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
    return _from_series(free, levels, bound, *metadata)


def cyclic_power_table(table: ChowTable, p: int, *metadata) -> ChowTable:
    """Cyclic power in codimension grading on the series of the table, with
    the metadata given: the rows of the labelled reference
    ``to_table(cyclic.cyclic_power_codim(from_table(table), p))``.

    A class is a (degree e, order q) summand, q = 0 free; S is the classes
    with p | q.  Rotation orbits of p-tuples of summands are counted by
    Polya's ``(s^p + (p - 1) s(t^p)) / p`` on each series (``_polya``),
    since each nontrivial rotation fixes just the constant tuples.  The
    constant tuple of a class in S is dropped, and gamma (``Z/(p q)`` in
    degree p e) and alpha (``Z/p`` in every degree above p e) take its place:
    a free gamma replaces a free constant tuple, so only a gamma of
    ``Z/p^b`` changes a level, G_{p,b+1} in degree p e, and alpha adds the
    count of S-classes of degree e to G_{p,1} in every degree above p e.
    """
    require_prime(p)
    bound, free, levels = table.bound, table.free, dict(table.levels)
    at_p = levels.get(p, ())
    out_free = _polya(free, p, bound)
    out = {l: [_polya(s, p, bound) for s in lv] for l, lv in levels.items()}
    for b, (g, h) in enumerate(zip(at_p, at_p[1:] + (free,)), 1):
        counts = list(map(sub, g[: bound // p + 1], h))  # the Z/p^b in degrees e, p e <= bound
        if any(counts):
            gamma = _levels(out, p, b + 1, out_free)[b]
            gamma[::p] = map(add, gamma[::p], counts)
    steps = [0] * (bound + 1)  # the S-classes (free or p-power) of degree e, at degree p e + 1
    steps[1::p] = (at_p[0] if at_p else free)[: (bound - 1) // p + 1]
    alpha = _levels(out, p, 1, out_free)[0]
    alpha[:] = map(add, alpha, accumulate(steps))
    return _from_series(out_free, out, bound, *metadata)


def _levels(levels: dict, l: int, a: int, free: list[int]) -> list[list[int]]:
    """The level list of prime l, extended through level a by copies of ``free``."""
    lv = levels.setdefault(l, [])
    lv += [free.copy() for _ in range(a - len(lv))]
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
    bound + 1 nonnegative coefficients: a list of the other if one is the
    unit series (1, 0, ..., 0), of any length, and otherwise one big-integer
    product of the two packed one slot per degree (Kronecker substitution)."""
    n = bound + 1
    for x, y in ((a, b), (b, a)):
        if x[0] == 1 == sum(x):  # the unit series: no coefficient is negative
            return list(y[:n])
    width = (max(a).bit_length() + max(b).bit_length() + n.bit_length() + 7) // 8
    width = _SLOTS.get(width, width)
    x = _pack(a, width)
    return _unpack(x * (x if b is a else _pack(b, width)), n, width)


def _polya(s, p: int, bound: int) -> list[int]:
    """Rotation orbits of p-tuples, ``(s^p + (p - 1) s(t^p)) / p`` through
    ``bound``; a count that p does not divide raises ArithmeticError.  The unit
    series is its own count, (1 + (p - 1)) / p = 1.  Otherwise s^p is taken by
    square-and-multiply over the bits of p (Knuth, TAOCP vol. 2, 4.6.3) on s packed
    once in slots wide enough for s^p, unless those slots pass 8 bytes and p > 3,
    where ``_mul`` steps sized to each product beat products at the final width."""
    n = bound + 1
    if s[0] == 1 == sum(s):
        return list(s)
    width = (p * max(s).bit_length() + (p - 1) * n.bit_length() + 7) // 8
    wide, width = width > 8 and p > 3, _SLOTS.get(width, width)
    mask = None if wide else (1 << 8 * n * width) - 1
    x = out = s if wide else _pack(s, width)
    for bit in bin(p)[3:]:  # p >= 2, so at least one squaring builds a new value
        out = _mul(out, out, bound) if wide else out * out & mask
        if bit == "1":
            out = _mul(out, x, bound) if wide else out * x & mask
    out = out if wide else _unpack(out, n, width)
    out[::p] = [c + (p - 1) * e for c, e in zip(out[::p], s)]
    orbits = [c // p for c in out]
    if p * sum(orbits) != sum(out):  # the remainders, each in 0..p - 1, are not all 0
        d = next(d for d, c in enumerate(out) if c % p)
        raise ArithmeticError(f"Polya count {out[d]} in degree {d} is not a multiple of {p}")
    return orbits


def _pack(a, width: int) -> int:
    """The series a as one integer, one ``width``-byte slot per coefficient."""
    if width > 8:
        return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in a]), "little")
    return int.from_bytes(_little(_ITEMS[width](a)), "little")


def _unpack(x: int, n: int, width: int) -> list[int]:
    """The lowest n ``width``-byte slots of x, as ``_pack`` fills them."""
    buf = (x & (1 << 8 * n * width) - 1).to_bytes(n * width, "little")
    if width > 8:
        return [int.from_bytes(buf[i : i + width], "little") for i in range(0, n * width, width)]
    return _little(_ITEMS[width](buf)).tolist()


# per slot width w <= 8 bytes, the ``array`` constructor of the unsigned typecode
# with the smallest item of at least w bytes ('Q' has 8 everywhere), and that item size
_ITEMS = {w: partial(array, next(c for c in "BHILQ" if array(c).itemsize >= w)) for w in range(9)}
_SLOTS = {w: items().itemsize for w, items in _ITEMS.items()}


def _little(items):
    """The array with its items in little-endian byte order, in place."""
    if byteorder == "big":
        items.byteswap()
    return items
