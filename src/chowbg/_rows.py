"""The per-degree row API of ``tables``, compiled on first use.

No CLI request and no ``models`` call builds or reads a ``DegreeRow``: the
writers read the series.  ``tables`` keeps ``DegreeRow``, ``ChowTable`` and a
delegate of the same name for each function here that a method or a public
name runs: ``rows``, the per-degree view that its first reader builds from the
series and caches on that table alone; ``from_rows``, the checks and the
conversion of a table built from rows (``ChowTable.from_rows``,
``cli.table_from_json_obj``); ``set_row``, the canonical pairs of a row; and
``torsion_sort_key``, the (prime, exponent) order of those pairs.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import repeat

from ._intmath import prime_power_decompose
from ._record import Record
from .fields import parse_field
from .groups import parse_group_expr
from .tables import (
    ChowTable,
    DegreeRow,
    Localization,
    _from_series,
    _levels,
    _set_rows,
    torsion_counts,
)

_set_degree, _set_free_rank, _set_counts = DegreeRow._setters  # the hot stores of ``rows``


@lru_cache(maxsize=4096)
def torsion_sort_key(order: int) -> tuple[int, int]:
    pe = prime_power_decompose(order)
    if pe is None:
        raise ValueError(f"torsion order must be a prime power, got {order}")
    return pe


def set_row(row: DegreeRow, degree: int, free_rank: int, counts) -> None:
    """Fill a row from an {order: multiplicity} mapping, zeros dropped."""
    if degree < 0 or free_rank < 0:
        raise ValueError("degree and free rank must be nonnegative")
    pairs = []
    for q in sorted(counts, key=torsion_sort_key):
        m = counts[q]
        if m < 0:
            raise ValueError(f"torsion multiplicity must be nonnegative, got {m}")
        if m:
            pairs.append((q, m))
    Record.__init__(row, degree, free_rank, tuple(pairs))


def from_rows(rows, bound: int, group, field, localization, provenance) -> ChowTable:
    """``ChowTable.from_rows``: the table of one row per degree 0..bound,
    with the rows given cached as its ``rows``."""
    rows = tuple(rows)
    if bound < 0 or [r.degree for r in rows] != list(range(bound + 1)):
        raise ValueError("table must have one row per degree 0..bound")
    free = [r.free_rank for r in rows]
    levels: dict[int, list[list[int]]] = {}
    for d, r in enumerate(rows):
        for q, m in r.counts:
            l, a = torsion_sort_key(q)
            for s in _levels(levels, l, a, free)[:a]:
                s[d] += m
    pairs = sorted(levels.items())
    table = _from_series(free, pairs, bound, group, field, localization, provenance)
    _set_rows(table, rows)
    return table


def rows(table: ChowTable) -> tuple[DegreeRow, ...]:
    """The table's rows, built from the series on first read and cached."""
    built = table._rows
    if built is None:
        n = len(table.free)
        built = tuple(map(DegreeRow.__new__, repeat(DegreeRow, n)))
        deque(map(_set_degree, built, range(n)), 0)  # the slots filled for all rows at once
        deque(map(_set_free_rank, built, table.free), 0)
        deque(map(_set_counts, built, torsion_counts(table)), 0)
        _set_rows(table, built)
    return built


def table_from_json_obj(obj: dict, schema: int) -> ChowTable:
    """``cli.table_from_json_obj``: the table of a ``cli.table_to_json_obj``
    object of the given schema version."""
    if obj.get("schema") != schema:
        raise ValueError(f"unsupported schema version {obj.get('schema')!r}")
    table_rows = []
    for entry in obj["degrees"]:
        counts: dict[int, int] = {}
        for t in entry["torsion"]:
            order = t["prime"] ** t["exponent"]
            counts[order] = counts.get(order, 0) + t["multiplicity"]
        table_rows.append(DegreeRow.from_counts(entry["degree"], entry["free_rank"], counts))
    loc = obj["localization"]
    return from_rows(
        table_rows,
        obj["bound"],
        parse_group_expr(obj["group"]) if obj["group"] is not None else None,
        parse_field(obj["field"]["name"]) if obj["field"] is not None else None,
        Localization(loc["kind"], loc.get("prime")),
        tuple(obj["provenance"]),
    )
