"""The JSON answers of the verbs, and their bytes without json's import.

``cli`` imports this module at the first JSON it builds or writes, so only a
``--format json`` request compiles it.  The functions here build each
answer's keys after "schema", which ``cli`` puts first; ``write`` writes the
bytes of ``json.dumps(obj, indent=2)`` and a newline for the values the verbs
emit: dicts with str keys, lists, strs, ints and None.
"""

from __future__ import annotations

import re

from ._intmath import prime_power_decompose
from .groups import format_group
from .tables import torsion_counts


def header_keys(table) -> dict:
    """The group, field and localization keys shared by every table verb."""
    return {
        "group": format_group(table.group) if table.group is not None else None,
        "field": (
            {"char": table.field.characteristic, "name": table.field.name}
            if table.field is not None
            else None
        ),
        "localization": _localization(table.localization),
    }


def _localization(loc) -> dict:
    return {"kind": loc.kind} if loc.prime is None else {"kind": loc.kind, "prime": loc.prime}


def table_keys(table) -> dict:
    return {
        **header_keys(table),
        "bound": table.bound,
        "degrees": [
            {"degree": degree, "free_rank": free_rank, "torsion": torsion(counts)}
            for degree, (free_rank, counts) in enumerate(zip(table.free, torsion_counts(table)))
        ],
        "provenance": list(table.provenance),
    }


def torsion(counts: tuple[tuple[int, int], ...]) -> list[dict]:
    """One object per distinct order of a degree's canonical (order, multiplicity) pairs."""
    pairs = ((prime_power_decompose(order), mult) for order, mult in counts)
    return [{"prime": p, "exponent": e, "multiplicity": mult} for (p, e), mult in pairs]


def presentation_keys(pres) -> dict:
    return {
        "group": format_group(pres.group),
        "completeness": pres.completeness,
        "generators": [{"name": n, "degree": d} for n, d in pres.generators],
        "relations": [{"coefficient": m, "generator": n} for m, n in pres.torsion_relations],
    }


def galois_exponent_keys(spec) -> dict:
    return {
        "prime": spec.prime,
        "degree": spec.codegree,
        "kind": "zero" if spec.is_zero() else "ker",
        "exponent": spec.exponent,
    }


# json.dumps's ensure_ascii escapes: these by name, any other character but
# printable ASCII as its UTF-16 code units, \uXXXX or a surrogate pair.  The
# pattern is compiled (by re's cache) only for a text that needs an escape.
_ESCAPES = {c: "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')}
_UNSAFE = r'[^ !#-\[\]-~]'


def write(obj: dict, out) -> None:
    parts: list[str] = []
    _parts(obj, "\n", parts, {}, out)
    out.write("".join(parts) + "\n")


def _char(match) -> str:
    units = match.group().encode("utf-16-be", "surrogatepass").hex()
    return _ESCAPES.get(match.group()) or re.sub("(....)", r"\\u\1", units)


def _str(text: str) -> str:
    if str.isascii(text) and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    return '"' + re.sub(_UNSAFE, _char, text) + '"'


def _parts(value, newline: str, parts: list[str], keys: dict[str, str], out) -> None:
    # value's text, indented as newline ends; keys holds each key's text, escaped once
    kind = type(value)
    if kind is dict or kind is list:
        parts.append("{" if kind is dict else "[")
        separator = inner = newline + "  "
        for key, item in value.items() if kind is dict else enumerate(value):
            if kind is dict:  # a key that is not a str fails in str.isascii
                separator += keys.get(key) or keys.setdefault(key, _str(key) + ": ")
            parts.append(separator)
            _parts(item, inner, parts, keys, out)
            separator = "," + inner
            if len(parts) > 4096:  # a long list goes out as it is written
                out.write("".join(parts))
                parts.clear()
        parts.append((newline if value else "") + ("}" if kind is dict else "]"))
    elif kind is str:
        parts.append(_str(value))
    elif kind is int or value is None:
        parts.append("null" if value is None else str(value))
    else:
        raise TypeError(f"not a value the verbs emit as JSON: {value!r}")
