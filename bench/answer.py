"""Digests, size counts and error kinds of answers, shared by the recorder,
the runner and the children."""

from __future__ import annotations

import hashlib
import json


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:24]


def table_digest(table, group_text: str) -> str:
    """Digest of every value a ChowTable carries."""
    loc = table.localization
    obj = [
        [[r.degree, r.free_rank, list(r.torsion)] for r in table.rows],
        table.bound,
        group_text,
        table.field.name if table.field is not None else None,
        [loc.kind, loc.prime],
        list(table.provenance),
    ]
    return digest(json.dumps(obj, separators=(",", ":")).encode())


def answer_stats(table) -> tuple[int, int]:
    """(cyclic summands, distinct (degree, order) classes) of a table; a free
    summand has order 0."""
    summands = classes = 0
    for row in table.rows:
        summands += row.free_rank + len(row.torsion)
        classes += (row.free_rank > 0) + len(set(row.torsion))
    return summands, classes


def err_class(text: str) -> str:
    """The kind of message on stderr: 'parse error', 'unsupported', 'usage'
    or '' when nothing was written."""
    return text.split(":", 1)[0].strip() if text else ""
