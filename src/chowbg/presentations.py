"""Ring presentations for the classical-group catalog: one rule per group kind,
``catalog_classes``, lazy ``(degree, m)`` Chern-class generators with ``m * c = 0``,
which ``tables.polynomial_table`` multiplies and ``catalog_presentation`` names."""

from __future__ import annotations

from collections.abc import Iterator

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


def catalog_classes(g: GroupExpr, through: int | None = None) -> tuple[Iterator[tuple[int, int]], str]:
    """The catalog rule of G: the Chern classes c_i generating CH^*(BG), lazily, as
    ``(i, m)`` pairs (c_i of degree i, m c_i = 0, m = 0 for none), the generators
    ``tables.polynomial_table`` takes, and the completeness; with ``through``, only those
    of degree <= through.  GL(n) and Gm are polynomial on the Chern classes of the standard
    representation, Sp(2n) on the even ones; O(n) and SO(2n+1) add 2 c_i = 0 for odd i
    (self-duality); for G2 only the generators are known (c1..c7 of the 7-dim representation)."""
    completeness, dual = EXACT_PRESENTATION, False
    match g:
        case Gm():
            first, last, step = 1, 1, 1
        case GL(n):
            first, last, step = 1, n, 1
        case O(n):
            first, last, step, dual = 1, n, 1, True
        case Sp(n):
            first, last, step = 2, n, 2
        case SO(n) if n % 2 == 1:
            first, last, step, dual = 2, n, 1, True
        case SO(n):
            raise UnsupportedError(
                f"CH^*(BSO({n})) for even rank is not generated by Chern classes of the "
                "standard representation and has no complete description in this catalog"
            )
        case G2():
            first, last, step, completeness = 1, 7, 1, GENERATORS_ONLY
        case _:
            raise UnsupportedError(f"no catalog presentation for {format_group(g)}")
    top = last if through is None else min(last, through)
    return ((i, 2 if dual and i % 2 else 0) for i in range(first, top + 1, step)), completeness


def catalog_presentation(g: GroupExpr) -> RingPresentation:
    """The catalog presentation of CH^*(BG) in one pass; a relation reuses its class's name c_i."""
    classes, completeness = catalog_classes(g)
    names, relations = [], []
    for i, m in classes:
        names.append((name := f"c{i}", i))
        if m:
            relations.append((m, name))
    return RingPresentation(g, tuple(names), tuple(relations), completeness)


def catalog_generators(g: GroupExpr, through: int) -> list[tuple[int, int]]:
    """The catalog classes of degree <= through; the presentation is built only to refuse."""
    classes, completeness = catalog_classes(g, through)
    if completeness == EXACT_PRESENTATION:
        return list(classes)
    return presentation_generators(catalog_presentation(g))


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
    return polynomial_table(presentation_generators(pres), bound, pres.group)
