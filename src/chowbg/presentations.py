"""Ring presentations for the classical-group catalog.

Every exact presentation in the catalog is a polynomial ring on Chern
classes modulo relations of the single shape ``m * generator = 0``, so it
is a list of ``(degree, m)`` generators, one ring ``Z[x]/(m x)`` per
Chern class (m = 0 when no relation names it): the Kunneth factors that
``tables.polynomial_table`` multiplies into the additive table.
"""

from __future__ import annotations

from ._record import Record
from .errors import UnsupportedError
from .groups import G2, GL, SO, O, Gm, GroupExpr, Sp, format_group
from .tables import ChowTable, polynomial_table

EXACT_PRESENTATION = "exact"
GENERATORS_ONLY = "generators-only"


class RingPresentation(Record):
    __slots__ = ("group", "generators", "torsion_relations", "completeness")

    def __init__(
        self,
        group: GroupExpr,
        generators: tuple[tuple[str, int], ...],  # (name, degree)
        torsion_relations: tuple[tuple[int, str], ...],  # (m, name): m * name = 0
        completeness: str,  # EXACT_PRESENTATION | GENERATORS_ONLY
    ):
        names = {n for n, _ in generators}
        if len(names) != len(generators):
            raise ValueError("generator names must be unique")
        if any(d < 1 for _, d in generators):
            raise ValueError("generator degrees must be >= 1")
        if any(m < 2 for m, _ in torsion_relations):
            raise ValueError("torsion coefficients must be >= 2")
        if any(n not in names for _, n in torsion_relations):
            raise ValueError("relation names a missing generator")
        related = [n for _, n in torsion_relations]
        if len(set(related)) != len(related):
            raise ValueError("each generator takes at most one torsion relation")
        if completeness not in (EXACT_PRESENTATION, GENERATORS_ONLY):
            raise ValueError(f"unknown completeness {completeness!r}")
        super().__init__(group, generators, torsion_relations, completeness)


def _chern(indices) -> tuple[tuple[str, int], ...]:
    return tuple((f"c{i}", i) for i in indices)


def catalog_presentation(g: GroupExpr, through: int | None = None) -> RingPresentation:
    """The established generators-and-relations description of CH^*(BG).

    GL(n) and Gm are polynomial rings on the Chern classes of the standard
    representation; Sp(2n) on the even ones.  O(n) and SO(2n+1) add the
    self-duality relations 2*c_i = 0 for odd i.  For G2 only the generators
    are known (c1..c7 of the 7-dimensional representation).

    With ``through``, only the generators of degree <= through and their
    relations are listed: the same ring through that degree, and the
    one a table through that degree is built from, so its size does not
    grow with the rank.
    """

    def indices(first: int, last: int, step: int = 1) -> range:
        return range(first, (last if through is None else min(last, through)) + 1, step)

    match g:
        case Gm():
            return RingPresentation(g, _chern(indices(1, 1)), (), EXACT_PRESENTATION)
        case GL(n):
            return RingPresentation(g, _chern(indices(1, n)), (), EXACT_PRESENTATION)
        case O(n):
            rels = tuple((2, f"c{i}") for i in indices(1, n, 2))
            return RingPresentation(g, _chern(indices(1, n)), rels, EXACT_PRESENTATION)
        case Sp(n):
            return RingPresentation(g, _chern(indices(2, n, 2)), (), EXACT_PRESENTATION)
        case SO(n) if n % 2 == 1:
            rels = tuple((2, f"c{i}") for i in indices(3, n, 2))
            return RingPresentation(g, _chern(indices(2, n)), rels, EXACT_PRESENTATION)
        case SO(n):
            raise UnsupportedError(
                f"CH^*(BSO({n})) for even rank is not generated by Chern classes of the "
                "standard representation and has no complete description in this catalog"
            )
        case G2():
            return RingPresentation(g, _chern(indices(1, 7)), (), GENERATORS_ONLY)
    raise UnsupportedError(f"no catalog presentation for {format_group(g)}")


def presentation_generators(pres: RingPresentation) -> list[tuple[int, int]]:
    """The ``(degree, m)`` generators of an exact presentation, one ring
    ``Z[x]/(m x)`` per Chern class, for ``tables.polynomial_table``."""
    if pres.completeness != EXACT_PRESENTATION:
        raise UnsupportedError(
            f"presentation for {format_group(pres.group)} lists generators only; "
            "no additive table can be certified, but the presentation command lists the generators"
        )
    coeff = {name: m for m, name in pres.torsion_relations}
    return [(degree, coeff.get(name, 0)) for name, degree in pres.generators]


def additive_table_from_presentation(pres: RingPresentation, bound: int) -> ChowTable:
    """Expand an exact presentation into per-degree free ranks and torsion."""
    return polynomial_table(presentation_generators(pres), bound).with_metadata(group=pres.group)
