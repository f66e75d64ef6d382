"""Ring presentations for the classical-group catalog.

Every exact presentation in the catalog is a polynomial ring on Chern
classes modulo relations of the single shape ``m * generator = 0``, so a
presentation expands to an additive table by monomial counting: a monomial
is free iff it avoids every torsion generator, and otherwise generates a
cyclic group of order the gcd of the coefficients it meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import UnsupportedError
from .groups import G2, GL, SO, O, Gm, GroupExpr, Sp, format_group
from .tables import EXACT, ChowTable, DegreeRow

EXACT_PRESENTATION = "exact"
GENERATORS_ONLY = "generators-only"


@dataclass(frozen=True)
class RingPresentation:
    group: GroupExpr
    generators: tuple[tuple[str, int], ...]  # (name, degree)
    torsion_relations: tuple[tuple[int, str], ...]  # (m, name): m * name = 0
    completeness: str  # EXACT_PRESENTATION | GENERATORS_ONLY

    def __post_init__(self):
        names = [n for n, _ in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        if any(d < 1 for _, d in self.generators):
            raise ValueError("generator degrees must be >= 1")
        if any(m < 2 for m, _ in self.torsion_relations):
            raise ValueError("torsion coefficients must be >= 2")
        if any(n not in names for _, n in self.torsion_relations):
            raise ValueError("relation names a missing generator")
        if self.completeness not in (EXACT_PRESENTATION, GENERATORS_ONLY):
            raise ValueError(f"unknown completeness {self.completeness!r}")


def _chern(indices) -> tuple[tuple[str, int], ...]:
    return tuple((f"c{i}", i) for i in indices)


def catalog_presentation(g: GroupExpr) -> RingPresentation:
    """The established generators-and-relations description of CH^*(BG).

    GL(n) and Gm are polynomial rings on the Chern classes of the standard
    representation; Sp(2n) on the even ones.  O(n) and SO(2n+1) add the
    self-duality relations 2*c_i = 0 for odd i.  For G2 only the generators
    are known (c1..c7 of the 7-dimensional representation).
    """
    match g:
        case Gm():
            return RingPresentation(g, _chern([1]), (), EXACT_PRESENTATION)
        case GL(n):
            return RingPresentation(g, _chern(range(1, n + 1)), (), EXACT_PRESENTATION)
        case O(n):
            rels = tuple((2, f"c{i}") for i in range(1, n + 1, 2))
            return RingPresentation(g, _chern(range(1, n + 1)), rels, EXACT_PRESENTATION)
        case Sp(n):
            return RingPresentation(g, _chern(range(2, n + 1, 2)), (), EXACT_PRESENTATION)
        case SO(n) if n % 2 == 1:
            rels = tuple((2, f"c{i}") for i in range(3, n + 1, 2))
            return RingPresentation(g, _chern(range(2, n + 1)), rels, EXACT_PRESENTATION)
        case SO(n):
            raise UnsupportedError(
                f"CH^*(BSO({n})) for even rank is not generated by Chern classes of the "
                "standard representation and has no complete description in this catalog"
            )
        case G2():
            return RingPresentation(g, _chern(range(1, 8)), (), GENERATORS_ONLY)
    raise UnsupportedError(f"no catalog presentation for {format_group(g)}")


def additive_table_from_presentation(pres: RingPresentation, bound: int) -> ChowTable:
    """Expand an exact presentation into per-degree free ranks and torsion.

    Dynamic program over generators: states are (degree, torsion gcd so
    far), with gcd 0 standing for a torsion-free monomial.
    """
    if pres.completeness != EXACT_PRESENTATION:
        raise UnsupportedError(
            f"presentation for {format_group(pres.group)} lists generators only; "
            "no additive table can be certified"
        )
    coeff = {name: m for m, name in pres.torsion_relations}
    state: dict[tuple[int, int], int] = {(0, 0): 1}
    for name, gdeg in pres.generators:
        m = coeff.get(name)
        new: dict[tuple[int, int], int] = {}
        for (deg, key), count in state.items():
            e = 0
            while deg + e * gdeg <= bound:
                if e == 0 or m is None:
                    nk = key
                else:
                    nk = m if key == 0 else gcd(key, m)
                slot = (deg + e * gdeg, nk)
                new[slot] = new.get(slot, 0) + count
                e += 1
        state = new
    free = [0] * (bound + 1)
    torsion: list[dict[int, int]] = [{} for _ in range(bound + 1)]
    for (deg, key), count in state.items():
        if key == 0:
            free[deg] = count
        elif key >= 2:
            torsion[deg][key] = count
    rows = tuple(DegreeRow.from_counts(d, free[d], torsion[d]) for d in range(bound + 1))
    return ChowTable(rows=rows, bound=bound, group=pres.group, provenance=(EXACT,))
