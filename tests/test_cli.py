import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowbg.cli import (
    _emit_json,
    _parse_well_formed,
    build_parser,
    run,
    table_from_json_obj,
    table_to_json_obj,
)
from chowbg.errors import UnsupportedError
from chowbg.fields import parse_field
from chowbg.groups import combine_product, format_group, parse_group_expr
from chowbg.models import chow_model
from oracles import json_dump_reference
from strategies import parenthesised_products

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from workloads import catalog  # noqa: E402


# One more digit than CPython reads from a str by default
# (sys.get_int_max_str_digits() is 4300).
LONG_INTEGER = "1" + "0" * 4300


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestDescribe:
    def test_o3_table(self):
        code, out, _ = invoke(["describe", "O(3)", "--max-degree", "3"])
        assert code == 0
        lines = out.splitlines()
        assert "group: O(3)" in lines
        assert "  0: Z" in lines
        assert "  1: Z/2" in lines
        assert "  2: Z ⊕ Z/2" in lines
        assert "  3: (Z/2)^3" in lines

    def test_o3_json(self):
        code, out, _ = invoke(["describe", "O(3)", "--max-degree", "3", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == 1
        assert obj["group"] == "O(3)"
        assert obj["degrees"][2] == {
            "degree": 2,
            "free_rank": 1,
            "torsion": [{"prime": 2, "exponent": 1, "multiplicity": 1}],
        }
        assert obj["degrees"][3]["torsion"] == [
            {"prime": 2, "exponent": 1, "multiplicity": 3}
        ]

    def test_prime_flag(self):
        code, out, _ = invoke(["describe", "S_5", "--prime", "3", "--max-degree", "4"])
        assert code == 0
        assert "localization: at prime 3" in out
        assert "  2: Z/3" in out

    def test_mod_flag(self):
        code, out, _ = invoke(["describe", "S_3", "--mod", "2", "--max-degree", "3"])
        assert code == 0
        assert "localization: mod 2" in out

    def test_field_flag(self):
        code, out, _ = invoke(["describe", "Z/5", "--field", "Q", "--max-degree", "8"])
        assert code == 0
        assert "  4: Z/5" in out
        assert "  5: 0" in out

    def test_field_extension_rows(self):
        # F_2(mu_3) is F_4, whose Frobenius x -> x**4 has order 2 on mu_5
        code, out, _ = invoke(["describe", "Z/5", "--field", "F_2(mu_3)", "--max-degree", "8"])
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("  ")]
        assert rows == [f"  {d}: {'Z' if d == 0 else 'Z/5' if d % 2 == 0 else '0'}" for d in range(9)]

    def test_unsupported_exit_3(self):
        code, out, err = invoke(["describe", "SO(6)"])
        assert code == 3
        assert not out
        assert "unsupported" in err

    def test_parse_error_exit_2(self):
        code, _, err = invoke(["describe", "Sp(3)"])
        assert code == 2
        assert "byte 3" in err

    def test_bad_field_exit_2(self):
        code, _, err = invoke(["describe", "O(3)", "--field", "R"])
        assert code == 2
        assert "field" in err

    def test_prime_mod_conflict_exit_2(self):
        code, _, _ = invoke(["describe", "O(3)", "--prime", "2", "--mod", "2"])
        assert code == 2

    def test_deterministic(self):
        first = invoke(["describe", "wr(2, Z/2)", "--max-degree", "6", "--format", "json"])
        second = invoke(["describe", "wr(2, Z/2)", "--max-degree", "6", "--format", "json"])
        assert first == second


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["describe", "O(3)", "--max-degree", "5", "--format", "json"],
            ["describe", "Z/4 x Z/2", "--max-degree", "4", "--format", "json"],
            ["describe", "S_3", "--prime", "2", "--max-degree", "4", "--format", "json"],
            ["describe", "Z/5", "--field", "Q", "--max-degree", "8", "--format", "json"],
            ["sylow", "6", "--prime", "2", "--max-degree", "4", "--format", "json"],
        ],
    )
    def test_reparses_to_equal_table(self, argv):
        code, out, _ = invoke(argv)
        assert code == 0
        obj = json.loads(out)
        table = table_from_json_obj(obj)
        assert table_to_json_obj(table) == obj

    def test_other_schema_version_rejected(self):
        code, out, _ = invoke(["describe", "O(3)", "--max-degree", "1", "--format", "json"])
        obj = {**json.loads(out), "schema": 2}
        with pytest.raises(ValueError, match="unsupported schema version 2"):
            table_from_json_obj(obj)

    def test_equals_library_value(self):
        code, out, _ = invoke(["describe", "O(3)", "--max-degree", "5", "--format", "json"])
        assert code == 0
        table = table_from_json_obj(json.loads(out))
        assert table == chow_model(parse_group_expr("O(3)"), parse_field("C"), 5)


class TestCanonicalProducts:
    @given(parenthesised_products())
    def test_text_and_json_round_trip(self, case):
        terms, text = case
        g = parse_group_expr(text)
        assert g == combine_product(terms)
        assert parse_group_expr(format_group(g)) == g
        try:
            table = chow_model(g, parse_field("C"), 2)
        except UnsupportedError:
            return
        assert table_from_json_obj(table_to_json_obj(table)) == table

    @pytest.mark.parametrize(
        "text, group",
        [
            ("Z/2 x (Z/3 x GL(1))", "Z/6 x GL(1)"),
            ("GL(1) x Z/2 x O(3) x (Z/4 x (Sp(2) x Z/3))", "GL(1) x Z/12 x Z/2 x O(3) x Sp(2)"),
        ],
    )
    def test_group_line_reparses_to_the_same_table(self, text, group):
        code, out, _ = invoke(["describe", text, "--max-degree", "3", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["group"] == group
        table = table_from_json_obj(obj)
        assert table == chow_model(parse_group_expr(text), parse_field("C"), 3)

    @pytest.mark.parametrize("text", ["Z/3 x GL(1) x Z/3", "Z/3 x Gm x Z/5"])
    def test_scattered_abelian_factors_need_roots_of_unity(self, text):
        # the abelian factors form one group, Z/3 x Z/3 or Z/15, whatever lies between
        code, out, err = invoke(["describe", text, "--field", "Q"])
        assert (code, out) == (3, "")
        assert err.startswith("unsupported: Q lacks the roots of unity")


class TestOtherVerbs:
    def test_series_gl2(self):
        code, out, _ = invoke(["series", "GL(2)", "--max-degree", "8"])
        assert code == 0
        assert "series: 1 1 2 2 3 3 4 4 5" in out

    def test_series_mod(self):
        code, out, _ = invoke(["series", "S_3", "--mod", "2", "--max-degree", "6"])
        assert code == 0
        assert "series: 1 1 1 1 1 1 1" in out

    @pytest.mark.parametrize("loc", [["--prime", "2"], ["--mod", "2"]])
    def test_series_json_header_matches_describe(self, loc):
        args = ["S_3", "--max-degree", "4", "--format", "json", *loc]
        code, out, _ = invoke(["series", *args])
        assert code == 0
        series = json.loads(out)
        _, out, _ = invoke(["describe", *args])
        described = json.loads(out)
        for key in ("group", "field", "localization"):
            assert series[key] == described[key]
        assert list(series) == ["schema", "group", "field", "localization", "kind", "values"]
        assert series["values"] == [d["free_rank"] for d in described["degrees"]]

    def test_presentation_table(self):
        code, out, _ = invoke(["presentation", "O(3)"])
        assert code == 0
        assert "generators: c1:1 c2:2 c3:3" in out
        assert "relations: 2*c1 = 0, 2*c3 = 0" in out

    def test_presentation_g2(self):
        code, out, _ = invoke(["presentation", "G2"])
        assert code == 0
        assert "completeness: generators-only" in out

    def test_galois_exponent(self):
        code, out, _ = invoke(["galois-exponent", "--prime", "5", "--degree", "4"])
        assert code == 0
        assert out == "ker 5^1\n"

    def test_galois_exponent_zero(self):
        code, out, _ = invoke(["galois-exponent", "--prime", "5", "--degree", "3"])
        assert code == 0
        assert out == "0\n"

    def test_galois_exponent_json(self):
        code, out, _ = invoke(
            ["galois-exponent", "--prime", "3", "--degree", "6", "--format", "json"]
        )
        assert json.loads(out)["exponent"] == 2

    def test_g2_table_exit_3_names_the_presentation_command(self):
        code, out, err = invoke(["describe", "G2"])
        assert (code, out) == (3, "")
        assert "lists generators only" in err
        assert "the presentation command lists the generators" in err

    def test_large_adjoined_root_of_unity(self):
        # the order of 2 mod 10**9 + 7 is 500000003, found from the factorization
        code, out, _ = invoke(["describe", "Z/3", "--field", "F_2(mu_1000000007)", "--max-degree", "2"])
        assert code == 0
        assert out.splitlines()[-2:] == ["  1: 0", "  2: Z/3"]

    def test_bound(self):
        code, out, _ = invoke(["bound", "G2"])
        assert (code, out) == (0, "35\n")

    def test_bound_json(self):
        code, out, _ = invoke(["bound", "Sp(4)", "--format", "json"])
        assert json.loads(out) == {"schema": 1, "group": "Sp(4)", "bound": 6}

    def test_sylow(self):
        code, out, _ = invoke(["sylow", "6", "--prime", "2", "--max-degree", "2"])
        assert code == 0
        assert "2-Sylow subgroup of S_6: Z/2 x wr(2, Z/2)" in out
        assert "  1: (Z/2)^3" in out

    def test_sylow_needs_roots_of_unity_exit_3(self):
        code, out, err = invoke(["sylow", "3", "--prime", "3", "--field", "Q"])
        assert (code, out) == (3, "")
        assert err.startswith("unsupported: the 3-Sylow table of S_3 needs the roots of unity of order 3")

    def test_sylow_requires_prime(self):
        code, _, _ = invoke(["sylow", "6"])
        assert code == 2

    def test_nonprime_rejected(self):
        code, _, _ = invoke(["galois-exponent", "--prime", "4", "--degree", "4"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["describe", "O(3)", "--max-degree", "-1"], "argument --max-degree: must be >= 0: -1"),
            (["galois-exponent", "--prime", "5", "--degree", "0"], "argument --degree: must be >= 1: 0"),
            (["sylow", "0", "--prime", "2"], "argument n: must be >= 1: 0"),
            (["galois-exponent", "--prime", "4", "--degree", "4"], "argument --prime: not a prime: 4"),
            (["galois-exponent", "--prime", "x", "--degree", "4"], "argument --prime: not an integer: 'x'"),
            # counted, not echoed
            (["sylow", LONG_INTEGER, "--prime", "2"], "argument n: integer of 4301 digits is too long"),
            (["sylow", f"-{LONG_INTEGER}", "--prime", "2"], "argument n: integer of 4301 digits is too long"),
            (
                ["describe", "Z/2", "--max-degree", LONG_INTEGER],
                "argument --max-degree: integer of 4301 digits is too long",
            ),
            (
                ["galois-exponent", "--prime", LONG_INTEGER, "--degree", "4"],
                "argument --prime: integer of 4301 digits is too long",
            ),
            # a long argument is quoted by its first 20 characters and counted
            (
                ["describe", "Z/2", "--max-degree", "-" + "1" * 4000],
                "argument --max-degree: must be >= 0: -1111111111111111111... (4001 characters)",
            ),
            (
                ["describe", "Z/2", "--prime", "1" * 4000],
                "argument --prime: not a prime: 11111111111111111111... (4000 characters)",
            ),
            (
                ["describe", "Z/2", "--max-degree", "x" + "1" * 4000],
                "argument --max-degree: not an integer: 'x1111111111111111111'... (4001 characters)",
            ),
        ],
    )
    def test_bad_integer_argument_exit_2(self, argv, message, capsys):
        code, out, _ = invoke(argv)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.endswith(f": error: {message}\n")

    def test_symmetric_integral_unsupported(self):
        code, _, err = invoke(["describe", "S_4"])
        assert code == 3
        assert "S_4" in err


# psi_13, the least integer whose primality _intmath refuses to decide
OVER_BOUND_REQUESTS = [
    (["describe", "Z/2", "--prime", "3317044064679887385961981"], 2),
    (["galois-exponent", "--prime", "3317044064679887385961981", "--degree", "2"], 2),
    (["describe", "Z/3317044064679887385961981"], 3),
]


@pytest.mark.parametrize("argv, code", OVER_BOUND_REQUESTS)
def test_over_bound_integers_give_one_line_errors(argv, code, capsys):
    got, out, err = invoke(argv)
    err += capsys.readouterr().err  # argparse writes usage errors to sys.stderr
    assert (got, out) == (code, "")
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert "3317044064679887385961981" in last and "prime" in last


# Digits that str.isdigit accepts and int() rejects, integers that int()
# refuses to read, and the byte offset of each one's first character.
UNREADABLE_INTEGER_REQUESTS = [
    (["describe", "Z/³"], "expected an integer (byte 2)"),
    (["describe", "GL(²)"], "expected an integer (byte 3)"),
    (["describe", "S_¹"], "expected an integer (byte 2)"),
    (["describe", "wr(², Z/2)"], "expected an integer (byte 3)"),
    (["describe", "Z/٣ x Z/①"], "expected an integer (byte 9)"),
    (["describe", f"Z/{LONG_INTEGER}"], "integer of 4301 digits is too long (byte 2)"),
    (["describe", f"GL({LONG_INTEGER})"], "integer of 4301 digits is too long (byte 3)"),
    (["bound", f"Z/٣ x S_{LONG_INTEGER}"], "integer of 4301 digits is too long (byte 9)"),
    (["series", f"wr({LONG_INTEGER}, Z/2)"], "integer of 4301 digits is too long (byte 3)"),
    (["describe", "Z/2", "--field", f"F_{LONG_INTEGER}"], "integer of 4301 digits is too long"),
    (["describe", "Z/2", "--field", f"Q(mu_{LONG_INTEGER})"], "integer of 4301 digits is too long"),
]


@pytest.mark.parametrize("argv, message", UNREADABLE_INTEGER_REQUESTS)
def test_unreadable_integers_are_parse_errors(argv, message):
    assert invoke(argv) == (2, "", f"parse error: {message}\n")


def test_other_decimal_digits_read_as_integers():
    # int() and the field pattern's \d accept every Unicode decimal digit
    assert invoke(["describe", "Z/٣"]) == invoke(["describe", "Z/3"])
    field = parse_field("F_٧(mu_٣)")
    assert (field.characteristic, field.adjoined) == (7, (3,))


# 10**76 + 7 = 23 * m: factorint strips 23 and cannot certify m
OVER_BOUND_COMPOSITE = 10**76 + 7
# argv fuzzing: integers from negative to far above the primality bound
_HUGE = st.one_of(
    st.integers(min_value=-3, max_value=10**40),
    st.sampled_from([3317044064679887385961981, OVER_BOUND_COMPOSITE, 2**89 - 1, 10**15 + 37]),
)
_GROUP_FRAGMENTS = (
    "Z/", "GL(", "O(", "SO(", "Sp(", "S_", "G2", "Gm", "wr(", "1", "2", "3", "7",
    "(", ")", ", ", " x ", "x", "-", " ", "²", "٣", "①",
)  # fmt: skip
_FIELD_FRAGMENTS = ("C", "Qbar", "Q", "F_", "(mu_", ")", "2", "3", "5", " ", "²", "٣", "①")


def _fragments(pieces):
    return st.lists(st.sampled_from(pieces), max_size=12).map("".join)


GROUP_TEXTS = st.one_of(
    _fragments(_GROUP_FRAGMENTS),
    st.builds("{}({})".format, st.sampled_from(["GL", "O", "SO", "Sp"]), _HUGE),
    _HUGE.map("Z/{}".format),
    _HUGE.map("S_{}".format),
    st.builds("wr({}, {})".format, _HUGE, st.sampled_from(["Z/2", "GL(2)", "1", "O(3)"])),
    st.builds("Z/2 x {}({})".format, st.sampled_from(["GL", "O", "SO", "Sp"]), _HUGE),
    st.sampled_from(["Z/{}", "GL({})", "S_{}", "wr({}, Z/2)"]).map(lambda t: t.format(LONG_INTEGER)),
    st.text(max_size=30),
)
FIELD_TEXTS = st.one_of(
    st.sampled_from(["C", "Qbar", "Q"]),
    _HUGE.map("F_{}".format),
    _HUGE.map("Q(mu_{})".format),
    st.builds("F_{}(mu_{})".format, _HUGE, _HUGE),
    st.sampled_from(["F_{}", "Q(mu_{})", "F_2(mu_{})"]).map(lambda t: t.format(LONG_INTEGER)),
    _fragments(_FIELD_FRAGMENTS),
    st.text(max_size=20),
)


@st.composite
def fuzzed_argv(draw):
    verb = draw(st.sampled_from(["describe", "series", "bound", "sylow"]))
    degree = ["--max-degree", str(draw(st.integers(min_value=0, max_value=4)))]
    field = ["--field", draw(FIELD_TEXTS)]
    if verb == "bound":
        return [verb, draw(GROUP_TEXTS)]
    if verb == "sylow":
        n = draw(st.integers(min_value=-2, max_value=10**4).map(str) | st.text(max_size=8))
        prime = draw(_HUGE.map(str) | st.text(max_size=8))
        return [verb, n, "--prime", prime, *field, *degree]
    localization = draw(st.sampled_from([[], ["--prime"], ["--mod"]]))
    if localization:
        localization.append(str(draw(_HUGE)))
    return [verb, draw(GROUP_TEXTS), *field, *degree, *localization]


@settings(max_examples=300, deadline=None)
@given(fuzzed_argv())
def test_fuzzed_argv_exits_0_2_or_3_with_one_line(argv):
    """Any group or field text, huge ranks and primes included, is answered
    (0) or refused with a usage or parse error (2) or an unsupported error
    (3), in at most one line of chowbg's own stderr, and never raises.

    Left to the open cost-estimate item, and so not drawn: large
    --max-degree values, the presentation verb (it lists every Chern class,
    so its output grows with the rank), and sylow requests whose n has a
    large digit sum in base p (the Sylow group is a product of that many
    wreath towers), which is why n stays below 10**4.
    """
    argparse_err = io.StringIO()  # argparse writes usage errors to sys.stderr
    with contextlib.redirect_stderr(argparse_err):
        code, out, err = invoke(argv)
    assert code in (0, 2, 3), (argv, err)
    assert err.count("\n") <= 1 and err.endswith("\n") == bool(err), (argv, err)
    assert "Traceback" not in argparse_err.getvalue()
    assert err == "" if code == 0 else out == "", (argv, err)


def _check_fast_path(argv):
    """The fast path either declines argv or builds the namespace argparse
    builds from it; returns whether it accepted."""
    fast = _parse_well_formed(list(argv))
    if fast is not None:
        assert vars(fast) == vars(build_parser().parse_args(list(argv))), argv
    return fast is not None


@settings(max_examples=300, deadline=None)
@given(fuzzed_argv())
def test_fast_path_agrees_with_argparse_on_fuzzed_argv(argv):
    _check_fast_path(argv)


def _catalog_requests(workload):
    with open(BENCH / "refs.json") as f:
        refs = json.load(f)[workload]
    slices = {json.dumps(list(argv), separators=(",", ":")): name for name, argv in catalog(workload)}
    assert set(refs) == set(slices)
    return [(slices[key], json.loads(key)) for key in refs]


@pytest.mark.parametrize("workload", ["cli-small", "cli-large"])
def test_fast_path_accepts_every_ordinary_reference_request(workload):
    # the error slice holds parse errors, which are well-formed argv, and
    # usage errors, which argparse must word; every other request is ordinary
    declined = []
    for slice_name, argv in _catalog_requests(workload):
        if not _check_fast_path(argv) and slice_name != "error":
            declined.append(argv)
    assert declined == []


FAST_PATH_CASES = [
    (["describe", "O(3)", "--max-degree", "3"], True),
    (["describe", "O(3)", "--max", "3"], False),  # an abbreviation
    (["describe", "O(3)", "--format=json"], False),
    (["describe", "O(3)", "--format", "json", "--format", "table"], False),
    (["describe", "O(3)", "-h"], False),
    (["-h"], False),
    (["describe", "O(3)", "--prime", "2", "--mod", "3"], False),
    (["describe", "O(3)", "--prime", "2"], True),
    (["series", "O(3)", "--mod", "3"], True),
    (["describe", "O(3)", "--max-degree", "-1"], False),
    (["describe", "O(3)", "--format", "xml"], False),
    (["--max-degree", "3", "describe", "O(3)"], False),  # a flag before the verb
    (["describe", ""], True),  # an empty group text is a parse error, not a usage error
    (["describe", "-O(3)"], False),
    (["describe", "--max-degree", "3", "O(3)"], True),
    (["describe", "O(3)", "O(4)"], False),
    (["describe"], False),
    (["describe", "O(3)", "--max-degree"], False),
    (["describe", "O(3)", "--degree", "3"], False),
    (["galois-exponent", "--degree", "4", "--prime", "5"], True),
    (["galois-exponent", "--prime", "5"], False),
    (["sylow", "6", "--prime", "2", "--field", "Q"], True),
    (["sylow", "--prime", "2"], False),
    (["bound", "G2", "--format", "json"], True),
    (["presentation", "O(3)", "--max-degree", "3"], False),
    ([], False),
    (["nope"], False),
]


@pytest.mark.parametrize("argv, accepted", FAST_PATH_CASES)
def test_fast_path_hand_cases(argv, accepted):
    assert _check_fast_path(argv) == accepted


# Every help text, byte for byte at 80 columns, as argparse prints it from
# the parser that build_parser makes of VERBS.
HELP_TEXTS = {
    "": (
        "usage: chowbg [-h]\n"
        "              {describe,series,presentation,galois-exponent,bound,sylow} ...\n"
        "\n"
        "Additive structure and presentations of Chow rings of classifying spaces\n"
        "\n"
        "positional arguments:\n"
        "  {describe,series,presentation,galois-exponent,bound,sylow}\n"
        "    describe            per-degree additive table\n"
        "    series              per-degree numeric series\n"
        "    presentation        catalog ring presentation\n"
        "    galois-exponent     Galois fixed-subgroup exponent\n"
        "    bound               generator degree bound\n"
        "    sylow               table of the p-Sylow subgroup of S_n\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "describe": (
        "usage: chowbg describe [-h] [--max-degree MAX_DEGREE] [--field FIELD]\n"
        "                       [--prime PRIME | --mod MOD] [--format {table,json}]\n"
        "                       group\n"
        "\n"
        "positional arguments:\n"
        "  group                 group expression, e.g. 'O(3)' or 'Z/4 x Z/2'\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --max-degree MAX_DEGREE\n"
        "  --field FIELD         C, Qbar, Q, Q(mu_p), F_l, F_l(mu_p)\n"
        "  --prime PRIME         localize at this prime\n"
        "  --mod MOD             report F_p dimensions at this prime\n"
        "  --format {table,json}\n"
    ),
    "series": (
        "usage: chowbg series [-h] [--max-degree MAX_DEGREE] [--field FIELD]\n"
        "                     [--prime PRIME | --mod MOD] [--format {table,json}]\n"
        "                     group\n"
        "\n"
        "positional arguments:\n"
        "  group                 group expression, e.g. 'O(3)' or 'Z/4 x Z/2'\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --max-degree MAX_DEGREE\n"
        "  --field FIELD         C, Qbar, Q, Q(mu_p), F_l, F_l(mu_p)\n"
        "  --prime PRIME         localize at this prime\n"
        "  --mod MOD             report F_p dimensions at this prime\n"
        "  --format {table,json}\n"
    ),
    "presentation": (
        "usage: chowbg presentation [-h] [--format {table,json}] group\n"
        "\n"
        "positional arguments:\n"
        "  group\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {table,json}\n"
    ),
    "galois-exponent": (
        "usage: chowbg galois-exponent [-h] [--format {table,json}] --prime PRIME\n"
        "                              --degree DEGREE\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {table,json}\n"
        "  --prime PRIME\n"
        "  --degree DEGREE\n"
    ),
    "bound": (
        "usage: chowbg bound [-h] [--format {table,json}] group\n"
        "\n"
        "positional arguments:\n"
        "  group\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {table,json}\n"
    ),
    "sylow": (
        "usage: chowbg sylow [-h] [--max-degree MAX_DEGREE] [--field FIELD]\n"
        "                    [--format {table,json}] --prime PRIME\n"
        "                    n\n"
        "\n"
        "positional arguments:\n"
        "  n\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --max-degree MAX_DEGREE\n"
        "  --field FIELD         C, Qbar, Q, Q(mu_p), F_l, F_l(mu_p)\n"
        "  --format {table,json}\n"
        "  --prime PRIME\n"
    ),
}


@pytest.mark.parametrize("verb", list(HELP_TEXTS))
def test_help_texts_are_unchanged(verb, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = run([verb, "--help"] if verb else ["--help"])
    assert (code, printed.getvalue()) == (0, HELP_TEXTS[verb])


# JSON values of the kinds the verbs emit: dicts with str keys, lists, ints,
# None and strings with quotes, backslashes, control, non-ASCII, astral and
# lone surrogate characters
_ANY_CHARACTER = st.characters(min_codepoint=0, max_codepoint=0x10FFFF, blacklist_categories=())
_JSON_TEXTS = st.text(_ANY_CHARACTER, max_size=8) | st.sampled_from(
    ['"', "\\", "\x7f", "\x00\x1f\b\f\n\r\t", "é٣", "\U0001f600", "\ud800", "\udfff\ud800"]
)
JSON_VALUES = st.recursive(
    st.none() | st.integers() | _JSON_TEXTS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXTS, inner, max_size=4),
    max_leaves=24,
)


def _emitted(obj):
    out = io.StringIO()
    _emit_json(obj, out)
    return out.getvalue()


def _reference(obj):
    out = io.StringIO()
    json_dump_reference(obj, out)
    return out.getvalue()


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
@example({"schema": 1, "group": None, "degrees": [], "provenance": [{}]})
def test_json_writer_matches_json_dump(obj):
    assert _emitted(obj) == _reference(obj)


def test_json_writer_writes_long_lists_in_chunks():
    obj = {"values": list(range(5000)), "rows": [{"a": [i, None, "x"]} for i in range(3000)]}
    assert _emitted(obj) == _reference(obj)


@pytest.mark.parametrize("value", [True, 1.5, (1, 2), {1: 2}])
def test_json_writer_refuses_what_the_verbs_never_emit(value):
    with pytest.raises(TypeError):
        _emitted({"value": value})


def test_field_name_is_escaped_as_json_dump_escapes_it():
    code, out, _ = invoke(["describe", "Z/2", "--field", "F_٣", "--max-degree", "1", "--format", "json"])
    assert code == 0
    assert '    "name": "F_\\u0663"\n' in out
    assert out == _reference(json.loads(out))
