"""Command-line front end.

Verbs: describe, series, presentation, galois-exponent, bound, sylow.
Exit codes: 0 success, 2 parse error (group or field text; a group text
error gives its byte offset) or usage error (bad flags or integers), 3
unsupported computation, 1 stdout closed before the output was written.
Output is deterministic: rows and torsion are emitted in canonical order,
JSON objects in fixed key order.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from ._intmath import is_prime, prime_power_decompose
from .errors import FieldParseError, GroupParseError, UnsupportedError
from .fields import galois_fixed_exponent, parse_field
from .groups import format_group, generator_bound, parse_group_expr
from .models import (
    chow_model,
    chow_model_localized,
    chow_model_mod_p,
    chow_symmetric_sylow_bound,
)
from .presentations import catalog_presentation
from .tables import ChowTable, DegreeRow, Localization

JSON_SCHEMA_VERSION = 1


def _int_arg(minimum: int, prime: bool = False):
    """argparse type: an integer >= minimum, optionally required to be prime."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            digits = text.removeprefix("-")
            if digits.isdecimal():  # more digits than sys.get_int_max_str_digits()
                raise argparse.ArgumentTypeError(f"integer of {len(digits)} digits is too long")
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        try:
            not_prime = prime and not is_prime(value)
        except UnsupportedError as exc:  # argparse turns only ValueError/TypeError into usage errors
            raise argparse.ArgumentTypeError(str(exc))
        if not_prime:
            raise argparse.ArgumentTypeError(f"not a prime: {value}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}: {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    """One subparser per verb, with its runner as ``args.run``; shared flags come from parents."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("table", "json"), default="table")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--max-degree", type=_int_arg(0), default=10)
    table.add_argument("--field", default="C", help="C, Qbar, Q, Q(mu_p), F_l, F_l(mu_p)")
    located = argparse.ArgumentParser(add_help=False, parents=[table])
    located.add_argument("group", help="group expression, e.g. 'O(3)' or 'Z/4 x Z/2'")
    prime = _int_arg(2, prime=True)
    loc = located.add_mutually_exclusive_group()
    loc.add_argument("--prime", type=prime, help="localize at this prime")
    loc.add_argument("--mod", type=prime, help="report F_p dimensions at this prime")

    parser = argparse.ArgumentParser(
        prog="chowbg",
        description="Additive structure and presentations of Chow rings of classifying spaces",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, help, runner, *parents):
        # --format after the shared flags: -h and 'ambiguous option' errors list in this order
        sub_parser = sub.add_parser(name, help=help, parents=[*parents, output])
        sub_parser.set_defaults(run=runner)
        return sub_parser

    verb("describe", "per-degree additive table", _run_describe, located)
    verb("series", "per-degree numeric series", _run_series, located)
    verb("presentation", "catalog ring presentation", _run_presentation).add_argument("group")
    gal = verb("galois-exponent", "Galois fixed-subgroup exponent", _run_galois_exponent)
    gal.add_argument("--prime", type=prime, required=True)
    gal.add_argument("--degree", type=_int_arg(1), required=True)
    verb("bound", "generator degree bound", _run_bound).add_argument("group")
    syl = verb("sylow", "table of the p-Sylow subgroup of S_n", _run_sylow, table)
    syl.add_argument("n", type=_int_arg(1))
    syl.add_argument("--prime", type=prime, required=True)
    return parser


# ---------------------------------------------------------------------------
# rendering


def render_row_value(row: DegreeRow) -> str:
    parts = []
    if row.free_rank == 1:
        parts.append("Z")
    elif row.free_rank > 1:
        parts.append(f"Z^{row.free_rank}")
    for order, mult in row.counts:
        parts.append(f"Z/{order}" if mult == 1 else f"(Z/{order})^{mult}")
    return " ⊕ ".join(parts) if parts else "0"


def _localization_text(loc: Localization) -> str:
    if loc.kind == "integral":
        return "integral"
    if loc.kind == "at_prime":
        return f"at prime {loc.prime}"
    return f"mod {loc.prime}"


def render_table(table: ChowTable, out) -> None:
    if table.group is not None:
        out.write(f"group: {format_group(table.group)}\n")
    if table.field is not None:
        out.write(f"field: {table.field.name}\n")
    out.write(f"localization: {_localization_text(table.localization)}\n")
    out.write(f"provenance: {', '.join(table.provenance)}\n")
    width = len(str(table.bound))
    for row in table.rows:
        out.write(f"  {row.degree:>{width}}: {render_row_value(row)}\n")


def _torsion_json(counts: tuple[tuple[int, int], ...]) -> list[dict]:
    """One object per distinct order of a row's canonical (order, multiplicity) pairs."""
    out = []
    for order, mult in counts:
        p, e = prime_power_decompose(order)
        out.append({"prime": p, "exponent": e, "multiplicity": mult})
    return out


def _localization_json(loc: Localization) -> dict:
    obj = {"kind": loc.kind}
    if loc.prime is not None:
        obj["prime"] = loc.prime
    return obj


def _json_header(table: ChowTable) -> dict:
    """The schema, group, field and localization keys shared by every table verb."""
    return {
        "schema": JSON_SCHEMA_VERSION,
        "group": format_group(table.group) if table.group is not None else None,
        "field": (
            {"char": table.field.characteristic, "name": table.field.name}
            if table.field is not None
            else None
        ),
        "localization": _localization_json(table.localization),
    }


def table_to_json_obj(table: ChowTable) -> dict:
    return {
        **_json_header(table),
        "bound": table.bound,
        "degrees": [
            {
                "degree": row.degree,
                "free_rank": row.free_rank,
                "torsion": _torsion_json(row.counts),
            }
            for row in table.rows
        ],
        "provenance": list(table.provenance),
    }


def table_from_json_obj(obj: dict) -> ChowTable:
    """Inverse of table_to_json_obj, for round-tripping emitted JSON."""
    if obj.get("schema") != JSON_SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {obj.get('schema')!r}")
    rows = []
    for entry in obj["degrees"]:
        counts: dict[int, int] = {}
        for t in entry["torsion"]:
            order = t["prime"] ** t["exponent"]
            counts[order] = counts.get(order, 0) + t["multiplicity"]
        rows.append(DegreeRow.from_counts(entry["degree"], entry["free_rank"], counts))
    loc = obj["localization"]
    return ChowTable(
        rows=tuple(rows),
        bound=obj["bound"],
        group=parse_group_expr(obj["group"]) if obj["group"] is not None else None,
        field=parse_field(obj["field"]["name"]) if obj["field"] is not None else None,
        localization=Localization(loc["kind"], loc.get("prime")),
        provenance=tuple(obj["provenance"]),
    )


def _emit_json(obj: dict, out) -> None:
    import json  # here, not at module level: table-format requests never load it

    json.dump(obj, out, indent=2)
    out.write("\n")


# ---------------------------------------------------------------------------
# verbs


def _compute_table(args) -> ChowTable:
    g = parse_group_expr(args.group)
    k = parse_field(args.field)
    if args.prime is not None:
        return chow_model_localized(g, k, args.max_degree, args.prime)
    if args.mod is not None:
        return chow_model_mod_p(g, k, args.max_degree, args.mod)
    return chow_model(g, k, args.max_degree)


def _emit_table(table: ChowTable, args, out) -> int:
    if args.format == "json":
        _emit_json(table_to_json_obj(table), out)
    else:
        render_table(table, out)
    return 0


def _run_describe(args, out) -> int:
    return _emit_table(_compute_table(args), args, out)


def _run_series(args, out) -> int:
    table = _compute_table(args)
    kind = "mod-p-dimension" if args.mod is not None else "free-rank"
    values = [row.free_rank for row in table.rows]
    if args.format == "json":
        _emit_json({**_json_header(table), "kind": kind, "values": values}, out)
    else:
        out.write(f"group: {format_group(table.group)}\n")
        out.write(f"kind: {kind}\n")
        out.write("series: " + " ".join(str(v) for v in values) + "\n")
    return 0


def _run_presentation(args, out) -> int:
    pres = catalog_presentation(parse_group_expr(args.group))
    if args.format == "json":
        _emit_json(
            {
                "schema": JSON_SCHEMA_VERSION,
                "group": format_group(pres.group),
                "completeness": pres.completeness,
                "generators": [{"name": n, "degree": d} for n, d in pres.generators],
                "relations": [
                    {"coefficient": m, "generator": n} for m, n in pres.torsion_relations
                ],
            },
            out,
        )
    else:
        out.write(f"group: {format_group(pres.group)}\n")
        out.write(f"completeness: {pres.completeness}\n")
        gens = " ".join(f"{n}:{d}" for n, d in pres.generators)
        out.write(f"generators: {gens}\n")
        if pres.torsion_relations:
            rels = ", ".join(f"{m}*{n} = 0" for m, n in pres.torsion_relations)
            out.write(f"relations: {rels}\n")
        elif pres.completeness == "exact":
            out.write("relations: none\n")
    return 0


def _run_galois_exponent(args, out) -> int:
    spec = galois_fixed_exponent(args.prime, args.degree)
    if args.format == "json":
        _emit_json(
            {
                "schema": JSON_SCHEMA_VERSION,
                "prime": spec.prime,
                "degree": spec.codegree,
                "kind": "zero" if spec.is_zero() else "ker",
                "exponent": spec.exponent,
            },
            out,
        )
    else:
        out.write("0\n" if spec.is_zero() else f"ker {spec.prime}^{spec.exponent}\n")
    return 0


def _run_bound(args, out) -> int:
    g = parse_group_expr(args.group)
    value = generator_bound(g)
    if args.format == "json":
        _emit_json(
            {"schema": JSON_SCHEMA_VERSION, "group": format_group(g), "bound": value}, out
        )
    else:
        out.write(f"{value}\n")
    return 0


def _run_sylow(args, out) -> int:
    k = parse_field(args.field)
    table = chow_symmetric_sylow_bound(args.n, args.prime, args.max_degree, field=k)
    if args.format == "table":  # the table's group is the Sylow subgroup
        out.write(f"{args.prime}-Sylow subgroup of S_{args.n}: {format_group(table.group)}\n")
    return _emit_table(table, args, out)


def run(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.run(args, out)
    except (GroupParseError, FieldParseError) as exc:
        err.write(f"parse error: {exc}\n")
        return 2
    except UnsupportedError as exc:
        err.write(f"unsupported: {exc}\n")
        return 3


def main() -> None:
    # One request, then exit.  A request leaves a constant amount of cyclic
    # garbage (argparse's parser graph, about 300 objects at any bound or
    # input size), so a collection, during it or at interpreter shutdown, only
    # traces every loaded module, class and function.  Freezing the heap keeps
    # shutdown from tracing it.  run() and the library leave GC state alone.
    gc.disable()
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader left: send what is still buffered to devnull and exit
        # with EPIPE's status, as the Python docs' SIGPIPE note does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
