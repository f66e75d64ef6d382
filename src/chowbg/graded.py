"""Exact arithmetic on finitely generated graded abelian groups.

A graded group is a finite multiset of cyclic summands; each summand is a
single ``Z/order`` factor (order 0 denotes an infinite cyclic factor ``Z``)
sitting in one degree and tagged with a provenance label.  Groups carry a
grading mode (codimension, or dimension inside an ambient dimension) and a
validity bound ``valid_through``: only degrees inside the authoritative
window are meaningful, and every operation propagates the window by
minimum rather than inventing zeros outside it.

``normalize`` splits composite orders into prime powers (CRT) and sorts
summands canonically, so two groups agree degree by degree inside the
window iff their normalized order multisets agree.  All values are
immutable and all operations are pure functions.
"""

from __future__ import annotations

from math import gcd

from ._intmath import factorint, is_prime_power, require_prime
from ._record import Record
from .errors import GradingError
from .tables import ChowTable, DegreeRow


# ---------------------------------------------------------------------------
# provenance labels


class Generator(Record):
    __slots__ = ("name",)


class Tensor(Record):
    __slots__ = ("parts",)


class Gamma(Record):
    __slots__ = ("inner",)


class Alpha(Record):
    __slots__ = ("inner", "target_degree")


Label = Generator | Tensor | Gamma | Alpha


def label_key(label: Label):
    """Total order on labels, used for the canonical summand ordering."""
    match label:
        case Generator(name):
            return (0, name)
        case Tensor(parts):
            return (1, tuple(label_key(x) for x in parts))
        case Gamma(inner):
            return (2, label_key(inner))
        case Alpha(inner, j):
            return (3, j, label_key(inner))
    raise TypeError(f"not a label: {label!r}")


# ---------------------------------------------------------------------------
# gradings and groups


class Codim(Record):
    """Grading by codimension; degrees 0..valid_through are authoritative."""

    __slots__ = ()


class Dim(Record):
    """Grading by dimension; ambient None means unbounded ambient dimension.

    With ambient d and bound D, dimensions d-D..d are authoritative.
    """

    __slots__ = ("ambient",)

    def __init__(self, ambient: int | None = None):
        super().__init__(ambient)


CODIM = Codim()

Grading = Codim | Dim


class CyclicSummand(Record):
    __slots__ = ("order", "degree", "label")

    def __init__(self, order: int, degree: int, label: Label):
        # order 0 = infinite cyclic; prime power >= 2 after normalize
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        super().__init__(order, degree, label)


def _summand_key(s: CyclicSummand):
    return (s.degree, s.order, label_key(s.label))


class GradedAbelianGroup(Record):
    __slots__ = ("grading", "summands", "valid_through")

    def __init__(self, grading: Grading, summands: tuple[CyclicSummand, ...], valid_through: int):
        super().__init__(grading, tuple(summands), valid_through)  # window() reads the fields
        if self.valid_through < 0:
            raise ValueError("valid_through must be >= 0")
        lo, hi = self.window()
        for s in self.summands:
            if s.degree < lo or (hi is not None and s.degree > hi):
                raise GradingError(
                    f"summand degree {s.degree} outside authoritative window [{lo}, {hi}]"
                )

    def window(self) -> tuple[int, int | None]:
        """Authoritative degree range as (lo, hi); hi None means unbounded."""
        match self.grading:
            case Codim():
                return (0, self.valid_through)
            case Dim(ambient=None):
                return (0, None)
            case Dim(ambient=d):
                return (max(0, d - self.valid_through), d)
        raise TypeError(f"not a grading: {self.grading!r}")

    def in_window(self, degree: int) -> bool:
        lo, hi = self.window()
        return degree >= lo and (hi is None or degree <= hi)


def empty(grading: Grading, bound: int) -> GradedAbelianGroup:
    return GradedAbelianGroup(grading, (), bound)


def _require_same_grading(a: GradedAbelianGroup, b: GradedAbelianGroup) -> None:
    if a.grading != b.grading:
        raise GradingError(f"grading mismatch: {a.grading} vs {b.grading}")


# ---------------------------------------------------------------------------
# operations


def normalize(group: GradedAbelianGroup) -> GradedAbelianGroup:
    """Canonical form: prime-power orders (CRT split), deterministic order.

    Idempotent, and insensitive to the input summand order.
    """
    out = []
    for s in group.summands:
        if s.order == 0:
            out.append(s)
        elif s.order == 1:
            continue  # trivial factor
        else:
            for p, e in factorint(s.order):
                out.append(CyclicSummand(p**e, s.degree, s.label))
    out.sort(key=_summand_key)
    return GradedAbelianGroup(group.grading, tuple(out), group.valid_through)


def is_normalized(group: GradedAbelianGroup) -> bool:
    ok_orders = all(s.order == 0 or is_prime_power(s.order) for s in group.summands)
    keys = [_summand_key(s) for s in group.summands]
    return ok_orders and keys == sorted(keys)


def direct_sum(a: GradedAbelianGroup, b: GradedAbelianGroup) -> GradedAbelianGroup:
    _require_same_grading(a, b)
    bound = min(a.valid_through, b.valid_through)
    probe = empty(a.grading, bound)
    merged = [s for s in a.summands + b.summands if probe.in_window(s.degree)]
    return normalize(GradedAbelianGroup(a.grading, tuple(merged), bound))


def tensor(a: GradedAbelianGroup, b: GradedAbelianGroup) -> GradedAbelianGroup:
    """Graded tensor product over Z, summand by summand.

    ``Z/a (x) Z/b = Z/gcd(a, b)`` with the convention gcd(0, x) = x; coprime
    pairs contribute nothing.  There is no Tor correction: this models the
    Chow Kunneth rule, which is an isomorphism for the spaces treated here.
    """
    if a.grading != CODIM or b.grading != CODIM:
        raise GradingError("tensor requires codimension grading on both factors")
    bound = min(a.valid_through, b.valid_through)
    out = []
    for s in a.summands:
        for t in b.summands:
            degree = s.degree + t.degree
            if degree > bound:
                continue
            order = gcd(s.order, t.order)
            if order == 1:
                continue
            out.append(CyclicSummand(order, degree, Tensor((s.label, t.label))))
    return normalize(GradedAbelianGroup(CODIM, tuple(out), bound))


def localize(group: GradedAbelianGroup, p: int) -> GradedAbelianGroup:
    """Keep the free summands and the p-power torsion; drop the rest."""
    require_prime(p)
    g = normalize(group)
    kept = tuple(s for s in g.summands if s.order == 0 or s.order % p == 0)
    return GradedAbelianGroup(g.grading, kept, g.valid_through)


def mod_p_dimension(group: GradedAbelianGroup, p: int, degree: int) -> int:
    """F_p-dimension of (degree-d part) tensor Z/p: free rank + p-torsion count."""
    require_prime(p)
    if not group.in_window(degree):
        lo, hi = group.window()
        raise GradingError(f"degree {degree} outside authoritative window [{lo}, {hi}]")
    g = normalize(group)
    return sum(
        1 for s in g.summands if s.degree == degree and (s.order == 0 or s.order % p == 0)
    )


def to_table(group: GradedAbelianGroup) -> ChowTable:
    """Per-degree (free rank, torsion multiset) rows for a codim-graded group."""
    if group.grading != CODIM:
        raise GradingError(
            "to_table requires codimension grading; convert with convert_to_codim first"
        )
    # one pass: CRT-split each order into its degree; DegreeRow sorts torsion
    bound = group.valid_through
    free = [0] * (bound + 1)
    torsion: list[list[int]] = [[] for _ in range(bound + 1)]
    for s in group.summands:
        if s.order == 0:
            free[s.degree] += 1
        elif s.order != 1:
            torsion[s.degree].extend(p**e for p, e in factorint(s.order))
    rows = tuple(DegreeRow(d, free[d], tuple(torsion[d])) for d in range(bound + 1))
    return ChowTable(rows=rows, bound=bound)


def from_table(table: ChowTable) -> GradedAbelianGroup:
    """Rebuild a codim-graded group from table rows, with fresh generator labels."""
    out = []
    for row in table.rows:
        for i in range(row.free_rank):
            out.append(CyclicSummand(0, row.degree, Generator(f"e{row.degree}.{i}")))
        for i, order in enumerate(row.torsion):
            out.append(CyclicSummand(order, row.degree, Generator(f"t{row.degree}.{i}")))
    return normalize(GradedAbelianGroup(CODIM, tuple(out), table.bound))


def convert_to_codim(group: GradedAbelianGroup) -> GradedAbelianGroup:
    """Reindex a finite-ambient dimension grading by codimension."""
    match group.grading:
        case Codim():
            return group
        case Dim(ambient=None):
            raise GradingError("cannot convert unbounded ambient dimension to codimension")
        case Dim(ambient=d):
            flipped = tuple(
                CyclicSummand(s.order, d - s.degree, s.label) for s in group.summands
            )
            return normalize(GradedAbelianGroup(CODIM, flipped, group.valid_through))
    raise TypeError(f"not a grading: {group.grading!r}")


def degree_orders(group: GradedAbelianGroup) -> dict[int, tuple[int, ...]]:
    """Sorted order multiset per (nonempty) degree; ignores labels."""
    g = normalize(group)
    out: dict[int, list[int]] = {}
    for s in g.summands:
        out.setdefault(s.degree, []).append(s.order)
    return {d: tuple(v) for d, v in out.items()}
