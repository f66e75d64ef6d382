"""Command-line front end.

Verbs: describe, series, presentation, galois-exponent, bound, sylow.
Exit codes: 0 success, 2 parse error (group or field text; a group text
error gives its byte offset) or usage error (bad flags or integers), 3
unsupported computation, 1 stdout closed before the output was written; a
closed stderr drops the message, not the code.  ``run`` returns the code,
``main`` ends the process.  Output is deterministic: degrees and torsion in
canonical order, JSON objects in fixed key order.  A well-formed argv is read
from ``VERBS``: only help and usage errors load argparse.  Only a ``--format
json`` request compiles ``_json``, which builds and writes every JSON answer.
"""

from __future__ import annotations

import _thread
import atexit
import gc
import io
import os
import sys
from types import SimpleNamespace

from ._intmath import is_prime
from .errors import FieldParseError, GroupParseError, UnsupportedError, echo
from .fields import galois_fixed_exponent, parse_field
from .groups import format_group, generator_bound, parse_group_expr
from .models import chow_model, chow_model_localized, chow_model_mod_p, chow_symmetric_sylow_bound
from .presentations import catalog_presentation
from .tables import ChowTable, Localization, torsion_counts

JSON_SCHEMA_VERSION = 1


def _int_arg(minimum: int, prime: bool = False):
    """An integer check, >= minimum and optionally prime: ValueError words a refusal."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            digits = text.removeprefix("-")
            if digits.isdecimal():  # more digits than sys.get_int_max_str_digits()
                raise ValueError(f"integer of {len(digits)} digits is too long")
            raise ValueError(f"not an integer: {echo(text, repr)}")
        try:
            not_prime = prime and not is_prime(value)
        except UnsupportedError as exc:
            raise ValueError(str(exc))
        if not_prime:
            raise ValueError(f"not a prime: {echo(str(value))}")
        if value < minimum:
            raise ValueError(f"must be >= {minimum}: {echo(str(value))}")
        return value

    return parse


def render_row_value(free_rank: int, counts: tuple[tuple[int, int], ...]) -> str:
    """One degree's group from its free rank and canonical (order, multiplicity) pairs."""
    parts = [] if not free_rank else ["Z"] if free_rank == 1 else [f"Z^{free_rank}"]
    for order, mult in counts:
        parts.append(f"Z/{order}" if mult == 1 else f"(Z/{order})^{mult}")
    return " ⊕ ".join(parts) if parts else "0"


def _localization_text(loc: Localization) -> str:
    text = {"at_prime": "at prime", "mod_p": "mod"}.get(loc.kind)
    return f"{text} {loc.prime}" if text else "integral"


def render_table(table: ChowTable, out) -> None:
    if table.group is not None:
        out.write(f"group: {format_group(table.group)}\n")
    if table.field is not None:
        out.write(f"field: {table.field.name}\n")
    out.write(f"localization: {_localization_text(table.localization)}\n")
    out.write(f"provenance: {', '.join(table.provenance)}\n")
    width = len(str(table.bound))
    for degree, (free_rank, counts) in enumerate(zip(table.free, torsion_counts(table))):
        out.write(f"  {degree:>{width}}: {render_row_value(free_rank, counts)}\n")


def table_to_json_obj(table: ChowTable) -> dict:
    from . import _json

    return {"schema": JSON_SCHEMA_VERSION, **_json.table_keys(table)}


def table_from_json_obj(obj: dict) -> ChowTable:
    """Inverse of table_to_json_obj, for round-tripping emitted JSON."""
    from . import _rows

    return _rows.table_from_json_obj(obj, JSON_SCHEMA_VERSION)


def _emit_json(obj: dict, out) -> None:
    """Write json.dumps(obj, indent=2) and a newline, without json (``_json``)."""
    from . import _json

    _json.write(obj, out)


def _emit_answer(keys: dict, out) -> int:
    """Write a verb's JSON answer: the schema, then ``keys``."""
    _emit_json({"schema": JSON_SCHEMA_VERSION, **keys}, out)
    return 0


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
    if args.format == "json":
        from . import _json

        return _emit_answer({**_json.header_keys(table), "kind": kind, "values": list(table.free)}, out)
    out.write(f"group: {format_group(table.group)}\nkind: {kind}\nseries: {' '.join(map(str, table.free))}\n")
    return 0


def _run_presentation(args, out) -> int:
    pres = catalog_presentation(parse_group_expr(args.group))
    if args.format == "json":
        from . import _json

        return _emit_answer(_json.presentation_keys(pres), out)
    out.write(f"group: {format_group(pres.group)}\ncompleteness: {pres.completeness}\ngenerators: ")
    out.write(" ".join(f"{n}:{d}" for n, d in pres.generators) + "\n")
    if pres.torsion_relations:
        out.write("relations: " + ", ".join(f"{m}*{n} = 0" for m, n in pres.torsion_relations) + "\n")
    elif pres.completeness == "exact":
        out.write("relations: none\n")
    return 0


def _run_galois_exponent(args, out) -> int:
    spec = galois_fixed_exponent(args.prime, args.degree)
    if args.format == "json":
        from . import _json

        return _emit_answer(_json.galois_exponent_keys(spec), out)
    out.write("0\n" if spec.is_zero() else f"ker {spec.prime}^{spec.exponent}\n")
    return 0


def _run_bound(args, out) -> int:
    g = parse_group_expr(args.group)
    value = generator_bound(g)
    if args.format == "json":
        return _emit_answer({"group": format_group(g), "bound": value}, out)
    out.write(f"{value}\n")
    return 0


def _run_sylow(args, out) -> int:
    table = chow_symmetric_sylow_bound(args.n, args.prime, args.max_degree, field=parse_field(args.field))
    if args.format == "table":  # the table's group is the Sylow subgroup
        out.write(f"{args.prime}-Sylow subgroup of S_{args.n}: {format_group(table.group)}\n")
    return _emit_table(table, args, out)


# Each verb's help, runner and arguments, in the order -h and argparse's errors
# list them: a name and its add_argument keywords, or a tuple of those, a
# mutually exclusive group.  --format comes after the shared flags.
_PRIME = _int_arg(2, prime=True)
_FORMAT = ("--format", {"choices": ("table", "json"), "default": "table"})
_TABLE = (
    ("--max-degree", {"type": _int_arg(0), "default": 10}),
    ("--field", {"default": "C", "help": "C, Qbar, Q, Q(mu_p), F_l, F_l(mu_p)"}),
)
_LOCATED = (*_TABLE, ("group", {"help": "group expression, e.g. 'O(3)' or 'Z/4 x Z/2'"}), (
    ("--prime", {"type": _PRIME, "default": None, "help": "localize at this prime"}),
    ("--mod", {"type": _PRIME, "default": None, "help": "report F_p dimensions at this prime"}),
), _FORMAT)
_NEEDS_PRIME = ("--prime", {"type": _PRIME, "required": True})
VERBS = {
    "describe": ("per-degree additive table", _run_describe, _LOCATED),
    "series": ("per-degree numeric series", _run_series, _LOCATED),
    "presentation": ("catalog ring presentation", _run_presentation, (_FORMAT, ("group", {}))),
    "galois-exponent": ("Galois fixed-subgroup exponent", _run_galois_exponent, (
        _FORMAT, _NEEDS_PRIME, ("--degree", {"type": _int_arg(1), "required": True}))),
    "bound": ("generator degree bound", _run_bound, (_FORMAT, ("group", {}))),
    "sylow": ("table of the p-Sylow subgroup of S_n", _run_sylow, (
        *_TABLE, _FORMAT, ("n", {"type": _int_arg(1)}), _NEEDS_PRIME)),
}  # fmt: skip


def build_parser():
    """The argparse parser of VERBS, for help and usage errors."""
    from ._usage import argparse_parser  # a well-formed request compiles neither

    return argparse_parser(VERBS)


def _parse_well_formed(argv: list[str]) -> SimpleNamespace | None:
    """build_parser().parse_args(argv), read from VERBS, if argv is a verb with
    its positionals and exact long flags, each once as ``--flag value``, no
    value starts with "-" and each passes its check; else None."""
    if not argv or argv[0] not in VERBS:
        return None
    _, runner, arguments = VERBS[argv[0]]
    flags, bare, words = {}, [], iter(argv[1:])  # bare: the words that are not flags
    for word in words:
        if not word.startswith("-"):
            bare.append(word)
        elif word in flags or flags.setdefault(word, next(words, "-")).startswith("-"):
            return None  # a repeated flag, or one without a value
    values = {"verb": argv[0], "run": runner}
    for argument in arguments:
        members = argument if isinstance(argument[0], tuple) else (argument,)
        if sum(name in flags for name, _ in members) > 1:
            return None
        for name, options in members:
            dest = name.removeprefix("--").replace("-", "_")
            text = flags.pop(name, None) if name != dest else bare.pop(0) if bare else None
            try:  # an argument with no default must be given
                value = options["default"] if text is None else options.get("type", str)(text)
            except (KeyError, ValueError):
                return None
            if value not in options.get("choices", (value,)):
                return None
            values[dest] = value
    return None if flags or bare else SimpleNamespace(**values)


def run(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = _parse_well_formed(argv)
    if args is None:  # help, or a usage error for argparse to word
        try:
            args = build_parser().parse_args(argv)
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


def _drain(text: str = "") -> None:
    """Write text to stderr and flush both streams; a closed one drops its bytes."""
    for fd, stream, tail in ((1, sys.stdout, ""), (2, sys.stderr, text)):
        try:
            if stream:
                stream.write(tail)
                stream.flush()
        except OSError:  # what stays buffered goes to devnull, not to an exit error
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


def main() -> None:
    # One request leaves at most argparse's parser graph as cyclic garbage, so
    # the collector stays off and the heap is frozen.  Teardown only frees memory:
    # with no tool, -i prompt or other thread to wait for, the process skips it.
    gc.disable()
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    out = sys.stdout or open(os.devnull)  # stdout closed: every write raises OSError
    err = io.StringIO()  # written after the request: a closed stderr keeps the code
    try:
        code = run(sys.argv[1:], out, err)
        out.flush()  # a closed pipe raises here, not at interpreter exit
    except OSError:  # stdout closed or its reader left: EPIPE's status
        code = 1
    _drain(err.getvalue())
    gc.freeze()
    monitoring = getattr(sys, "monitoring", None)  # cProfile's hook from 3.12
    if not (sys.gettrace() or sys.getprofile() or sys.flags.inspect or _thread._count()
            or monitoring and any(map(monitoring.get_tool, range(6)))):
        atexit._run_exitfuncs()
        _drain()
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    main()
