"""The CLI as a fresh ``python -m chowbg.cli`` process.

In-process tests call ``chowbg.cli.run`` and cannot see what only a new
interpreter shows: warnings printed while ``runpy`` starts the module, or
errors raised when the standard streams are flushed at exit.  Here a
stratified sample of the benchmark's ``cli-small`` references runs one
process per request, and a reader that leaves early must not get a
traceback.  ``END_TO_END`` is the table of end-to-end checks, each a fresh
process with its exit code, output pin or predicate, stderr and time bound:
the sha256 pins of the paper's constructions at large degree, refusals of
huge numbers, and library round trips.  The benchmark's modules are
imported, never changed.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import shlex
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = str(ROOT / "bench")
sys.path.insert(0, BENCH)

from answer import digest, err_class  # noqa: E402
from test_cli import LONG_INTEGER, OVER_BOUND_COMPOSITE, OVER_BOUND_REQUESTS  # noqa: E402
from test_cli_gc import VERB_CALLS  # noqa: E402
from workloads import catalog, request_key  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
CLI = [sys.executable, "-m", "chowbg.cli"]


def _flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def _strata_sample():
    """The first ordinary cli-small request of each (verb, format, exit code,
    error class) stratum, with its reference."""
    with open(os.path.join(BENCH, "refs.json")) as f:
        refs = json.load(f)["cli-small"]
    sample = {}
    for slice_name, argv in catalog("cli-small"):
        if slice_name not in ("normal", "error"):
            continue
        ref = refs[request_key(argv)]
        key = (argv[0], _flag(argv, "--format", "table"), ref["exit"], ref["err"])
        sample.setdefault(key, (argv, ref))
    return list(sample.values())


def test_fresh_processes_match_references():
    sample = _strata_sample()
    assert len(sample) == 29
    mismatches = []
    for argv, ref in sample:
        child = subprocess.run([*CLI, *argv], env=ENV, capture_output=True, timeout=60)
        err = child.stderr.decode("utf-8")
        got = {"exit": child.returncode, "out": digest(child.stdout), "err": err_class(err)}
        if got != {key: ref[key] for key in got}:
            mismatches.append((argv, got))
        assert "Traceback" not in err, argv
        if child.returncode == 0:
            assert err == "", argv
    assert mismatches == []


@pytest.mark.parametrize(
    "argv, exits",
    [
        # 1.4 kB: the whole answer may be in the pipe before the reader leaves
        (
            ("describe", "Z/5 x GL(1)", "--field", "Q", "--max-degree", "8", "--format", "json"),
            (0, 1),
        ),
        # 113 kB: more than a pipe buffer holds, so the writer is still
        # writing when the reader leaves, however stdout is buffered
        (("describe", "GL(2) x Z/6", "--max-degree", "400", "--format", "json"), (1,)),
    ],
)
def test_early_closed_stdout_gives_no_traceback(argv, exits):
    child = subprocess.Popen(
        [*CLI, *argv], env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        head = child.stdout.read(300)
        child.stdout.close()
        err = child.stderr.read()
    finally:
        child.wait(timeout=60)
        child.stderr.close()
    assert len(head) == 300
    assert b"Traceback" not in err and err == b""
    assert child.returncode in exits


def test_flat_product_of_500_terms():
    # the memo hashes the left-deep Product tree: each node caches its hash
    text = " x ".join(["GL(1) x O(1)"] * 250)
    child = subprocess.run(
        [*CLI, "describe", text, "--max-degree", "3"], env=ENV, capture_output=True, timeout=60
    )
    assert child.returncode == 0 and child.stderr == b""
    assert child.stdout.startswith(b"group: GL(1) x O(1) x ")


def _timed_run(argv):
    # a ``-c`` or ``-m`` argv is a Python command line, any other one a CLI request
    command = [sys.executable, *argv] if argv[0] in ("-c", "-m") else [*CLI, *argv]
    start = time.perf_counter()
    child = subprocess.run(command, env=ENV, capture_output=True, timeout=60)
    return child, time.perf_counter() - start


def test_1200_nested_parentheses_print_the_inner_group():
    # the parser keeps open parentheses on its own stack, not Python's
    nested = "(" * 1200 + "Z/2" + ")" * 1200
    child, _ = _timed_run(["describe", nested])
    plain, _ = _timed_run(["describe", "Z/2"])
    assert child.returncode == 0 and child.stderr == b""
    assert child.stdout == plain.stdout


FLAT_4000 = " x ".join(["GL(1) x O(1)"] * 2000)


@pytest.mark.parametrize(
    "argv, printed",
    [
        (("describe", FLAT_4000, "--max-degree", "3"), lambda out: out.splitlines()[0]),
        (("series", FLAT_4000, "--format", "json"), lambda out: json.loads(out)["group"]),
        (("bound", FLAT_4000), str.rstrip),
    ],
    ids=["describe", "series", "bound"],
)
def test_product_of_4000_terms(argv, printed):
    # every walk over the product reads its terms in one loop
    child, seconds = _timed_run(argv)
    assert child.returncode == 0 and child.stderr == b""
    want = {"describe": f"group: {FLAT_4000}", "series": FLAT_4000, "bound": "2000"}[argv[0]]
    assert printed(child.stdout.decode("utf-8")) == want
    assert seconds < 2


WREATH_900 = "wr(2, " * 900 + "Z/2" + ")" * 900
WREATH_2000 = "wr(2, " * 2000 + "Z/2" + ")" * 2000
TOWER_CALLS = {
    "describe": (("describe", "--max-degree", "0"), lambda out: out.splitlines()[0]),
    "series": (
        ("series", "--max-degree", "0", "--format", "json"),
        lambda out: json.loads(out)["group"],
    ),
}


def _check_tower(tower, verb):
    # chow_model fills its memo from an explicit stack, and the printer writes
    # from one, so a tower costs no Python frame per level
    (name, *flags), printed = TOWER_CALLS[verb]
    child, seconds = _timed_run([name, tower, *flags])
    assert child.returncode == 0 and child.stderr == b""
    want = {"describe": f"group: {tower}", "series": tower}[verb]
    assert printed(child.stdout.decode("utf-8")) == want
    assert seconds < 2


@pytest.mark.parametrize("verb", list(TOWER_CALLS))
def test_wreath_tower_of_900_levels(verb):
    _check_tower(WREATH_900, verb)


@pytest.mark.parametrize("verb", list(TOWER_CALLS))
def test_wreath_tower_of_2000_levels(verb):
    _check_tower(WREATH_2000, verb)


@pytest.mark.parametrize("argv, code", OVER_BOUND_REQUESTS)
def test_over_bound_integers_exit_without_traceback(argv, code):
    child, seconds = _timed_run(argv)
    err = child.stderr.decode("utf-8")
    assert (child.returncode, child.stdout) == (code, b"")
    assert "Traceback" not in err
    assert "3317044064679887385961981" in err.splitlines()[-1]
    assert seconds < 5


@pytest.mark.parametrize(
    "group, message",
    [
        ("Z/³", "expected an integer (byte 2)"),
        (f"Z/{LONG_INTEGER}", "integer of 4301 digits is too long (byte 2)"),
    ],
    ids=["superscript-digit", "4301-digits"],
)
def test_unreadable_integers_exit_2_without_traceback(group, message):
    child, _ = _timed_run(["describe", group])
    assert (child.returncode, child.stdout) == (2, b"")
    assert child.stderr.decode("utf-8") == f"parse error: {message}\n"


def test_factoring_refusal_names_the_number_typed():
    child, seconds = _timed_run(["describe", f"Z/{OVER_BOUND_COMPOSITE}"])
    assert (child.returncode, child.stdout) == (3, b"")
    assert child.stderr.decode("utf-8") == (
        "unsupported: cannot certify the prime factors of 10000000000000000000... "
        "(77 characters): exact primality is only available below 3317044064679887385961981\n"
    )
    assert seconds < 5


@pytest.mark.parametrize(
    "argv, code",
    [
        (["describe", "Z/3" + "0" * 3000 + "1"], 3),
        (["describe", "Z/2", "--prime", str(10**80 + 1)], 2),
        (["galois-exponent", "--prime", str(10**80 + 1), "--degree", "2"], 2),
    ],
    ids=["3002-digit-order", "81-digit-prime", "81-digit-galois-prime"],
)
def test_refusals_quote_long_numbers_briefly(argv, code):
    # a number past 40 characters is quoted by its first 20 and its length;
    # a usage error (exit 2) prints argparse's usage lines above the message
    child, seconds = _timed_run(argv)
    err = child.stderr.decode("utf-8")
    assert (child.returncode, child.stdout) == (code, b"")
    assert "Traceback" not in err and len(err.splitlines()[-1].encode()) < 300, err
    assert len(child.stderr) < 300 if code == 3 else err.startswith("usage: ")
    assert "cannot certify" in err and "0000000000... (" in err and " characters)" in err
    assert seconds < 5


HUGE_RANK_REQUESTS = [
    (["describe", "GL(100000000000)", "--max-degree", "2"], ["  0: Z", "  1: Z", "  2: Z^2"]),
    (["describe", "O(100000000000)", "--max-degree", "2"], ["  0: Z", "  1: Z/2", "  2: Z ⊕ Z/2"]),
    (["describe", "Sp(100000000000)", "--max-degree", "2"], ["  0: Z", "  1: 0", "  2: Z"]),
    (["describe", "SO(100000001)", "--max-degree", "1"], ["  0: Z", "  1: 0"]),
    (
        ["describe", "Z/2 x GL(10000000)", "--max-degree", "2"],
        ["  0: Z", "  1: Z ⊕ Z/2", "  2: Z^2 ⊕ (Z/2)^2"],
    ),
]


@pytest.mark.parametrize("argv, rows", HUGE_RANK_REQUESTS)
def test_huge_rank_answers_in_a_fresh_process(argv, rows):
    # only the Chern classes of degree <= bound reach the table
    child, seconds = _timed_run(argv)
    assert (child.returncode, child.stderr) == (0, b"")
    assert child.stdout.decode("utf-8").splitlines()[4:] == rows
    assert seconds < 5


def test_full_presentation_of_rank_100000_answers_in_a_fresh_process():
    # each relation's generator is looked up in a set, not scanned for
    child, seconds = _timed_run(["presentation", "O(100000)"])
    assert (child.returncode, child.stderr) == (0, b"")
    assert b" c100000:100000\n" in child.stdout and b" 2*c99999 = 0" in child.stdout
    assert seconds < 5


def test_cli_import_loads_neither_json_nor_dataclasses():
    # cli writes JSON itself; Record replaces dataclasses
    probe = "import sys, chowbg.cli; print([m for m in ('json', 'dataclasses') if m in sys.modules])"
    child = subprocess.run(
        [sys.executable, "-c", probe], env=ENV, capture_output=True, text=True, timeout=60
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")


# runs chowbg.cli as `python -m` does and, from an exit handler, prints which of
# argparse and json it loaded; the exit code is the child's return code
_STDLIB_PROBE = """
    import atexit, runpy, sys
    atexit.register(lambda: print([m for m in ("argparse", "json") if m in sys.modules], file=sys.stderr))
    sys.argv = ["chowbg", *sys.argv[1:]]
    runpy.run_module("chowbg.cli", run_name="__main__")
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("describe", "O(8)", "--max-degree", "33", "--format", "json"), "0 []"),
        (("series", "O(7)", "--max-degree", "35"), "0 []"),
        (("describe", "O(8)", "--max-degree", "-1"), "2 ['argparse']"),
        (("describe", "--help"), "0 ['argparse']"),
    ],
    ids=["describe-json", "series", "usage-error", "help"],
)
def test_only_help_and_usage_errors_load_argparse(argv, loaded):
    child = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_STDLIB_PROBE), *argv],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert f"{child.returncode} {child.stderr.splitlines()[-1]}" == loaded


# The chowbg modules and their non-blank lines that one text request of each
# verb compiles, with no cached bytecode: today all six compile the same ten
# modules (help and usage errors also compile _usage, the argparse builder).
# The bounds are upper bounds, so a verb may come to compile less.
COMPILED_SURFACE = {
    "describe": (10, 1622),
    "series": (10, 1622),
    "presentation": (10, 1622),
    "galois-exponent": (10, 1622),
    "bound": (10, 1622),
    "sylow": (10, 1622),
}
# The modules compiled only where their code first runs: big-integer
# primality and factoring, the cyclotomic arithmetic of fields without all
# roots of unity, the JSON answers, the repr and pickling of group tree nodes
# and the row API.  A text table over C and a survey call run none of them.
ON_DEMAND = {"_cyclotomic.py", "_factoring.py", "_json.py", "_nodes.py", "_rows.py"}
# runs chowbg.cli as `python -m` does and, from an exit handler, prints each
# compiled chowbg file with its non-blank line count, from the "compile" audit events
_SURFACE_PROBE = """
    import atexit, os, runpy, sys
    package = os.path.join(sys.argv[1], "")
    compiled = {}
    def hook(event, args):
        if event == "compile" and isinstance(args[1], str) and args[1].startswith(package):
            source = args[0] if isinstance(args[0], bytes) else args[0].encode()
            compiled[args[1][len(package):]] = sum(1 for line in source.splitlines() if line.strip())
    sys.addaudithook(hook)
    atexit.register(lambda: print(compiled, file=sys.stderr))
    sys.argv = ["chowbg", *sys.argv[2:]]
    runpy.run_module("chowbg.cli", run_name="__main__")
"""


@pytest.mark.parametrize("argv", VERB_CALLS, ids=[argv[0] for argv in VERB_CALLS])
def test_compiled_surface_per_verb(argv, tmp_path):
    # an empty bytecode cache directory: every module is compiled from source
    compiled = _compiled_by(argv, tmp_path)
    assert {"__init__.py", "cli.py"} <= set(compiled)
    modules, lines = COMPILED_SURFACE[argv[0]]
    assert len(compiled) <= modules, compiled
    assert sum(compiled.values()) <= lines, compiled


def _compiled_by(argv, tmp_path) -> dict[str, int]:
    """The chowbg files, with their non-blank line counts, that one request
    compiles as a fresh process with an empty bytecode cache."""
    env = dict(ENV, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(tmp_path))
    child = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_SURFACE_PROBE), str(ROOT / "src" / "chowbg"), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return ast.literal_eval(child.stderr)


@pytest.mark.parametrize(
    "fmt, loaded", [("table", set()), ("json", {"_json.py"})], ids=["text", "json"]
)
def test_a_table_request_compiles_only_its_writer(fmt, loaded, tmp_path):
    compiled = _compiled_by(["describe", "O(8)", "--max-degree", "33", "--format", fmt], tmp_path)
    assert set(compiled) & ON_DEMAND == loaded, compiled


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["describe", "GL(3)", "--field", "Q"], set()),
        (["describe", "O(4)", "--field", "F_5", "--mod", "2"], set()),
        (["describe", "wr(2, Z/3) x GL(2)", "--field", "Qbar"], set()),
        (["describe", "Z/5", "--field", "Q"], {"_cyclotomic.py"}),
    ],
    ids=["classical/Q", "classical/F_5", "product/Qbar", "Z/5/Q"],
)
def test_only_a_field_without_its_roots_of_unity_compiles_the_cyclotomic_rule(argv, loaded, tmp_path):
    # a single classical term meets no cyclotomic rule, and over a closed field
    # no product is checked for a cyclotomic Z/p's company
    compiled = _compiled_by(argv, tmp_path)
    assert set(compiled) & ON_DEMAND == loaded, compiled


# after chowbg.cli is imported, one call of each kind the survey times, each
# under an audit hook that collects the chowbg files compiled meanwhile
_SURVEY_PROBE = """
    import os, sys
    import chowbg.cli
    from chowbg import models
    from chowbg.fields import COMPLEX
    from chowbg.groups import parse_group_expr
    from chowbg.tables import ChowTable
    package = os.path.join(sys.argv[1], "")
    group = parse_group_expr("wr(2, wr(2, Z/2)) x Z/3")
    calls = {
        "chow_model": lambda: models.chow_model(group, COMPLEX, 12),
        "chow_model_localized": lambda: models.chow_model_localized(group, COMPLEX, 12, 2),
        "chow_model_mod_p": lambda: models.chow_model_mod_p(group, COMPLEX, 12, 2),
        "chow_symmetric_local": lambda: models.chow_symmetric_local(5, 5, COMPLEX, 12),
        "chow_symmetric_sylow_bound": lambda: models.chow_symmetric_sylow_bound(12, 2, 6),
    }
    compiled = []
    def hook(event, args):
        if event == "compile" and isinstance(args[1], str) and args[1].startswith(package):
            compiled.append(args[1][len(package):])
    sys.addaudithook(hook)
    for name, call in calls.items():
        assert isinstance(call(), ChowTable), name
        print(name, compiled)
"""


def test_survey_calls_compile_nothing(tmp_path):
    # a compile inside a timed survey call would cost it milliseconds
    env = dict(ENV, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(tmp_path))
    child = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_SURVEY_PROBE), str(ROOT / "src" / "chowbg")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [
        f"{name} []"
        for name in (
            "chow_model",
            "chow_model_localized",
            "chow_model_mod_p",
            "chow_symmetric_local",
            "chow_symmetric_sylow_bound",
        )
    ]


def test_tracer_installs_without_loading_on_demand_modules():
    # traced benchmark runs import and compile what timed runs do
    probe = (
        "import sys, chowbg.cli, tracer; tracer.Tracer().install(); "
        "print(sorted(m for m in sys.modules if m.startswith('chowbg.')))"
    )
    child = subprocess.run(
        [sys.executable, "-c", probe], cwd=BENCH, env=ENV, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    loaded = {name.removeprefix("chowbg.") + ".py" for name in ast.literal_eval(child.stdout)}
    assert {"cli.py", "graded.py", "cyclic.py"} <= loaded
    assert not loaded & ON_DEMAND, loaded


# runs chowbg.cli as `python -m` does and, from an exit handler, prints the
# number of DegreeRow objects made, counted by a replaced DegreeRow.__new__
_ROW_PROBE = """
    import atexit, runpy, sys
    from chowbg.tables import DegreeRow
    made = []
    def counting_new(cls, *args):
        made.append(cls)
        return object.__new__(cls)
    DegreeRow.__new__ = staticmethod(counting_new)
    atexit.register(lambda: print(len(made), file=sys.stderr))
    sys.argv = ["chowbg", *sys.argv[1:]]
    runpy.run_module("chowbg.cli", run_name="__main__")
"""
_AUDITED_REQUESTS = [
    ["describe", "O(8)", "--max-degree", "32"],
    ["describe", "wr(2, Z/2) x wr(3, Z/3)", "--prime", "2", "--max-degree", "12"],
    ["describe", "wr(2, Z/2) x wr(3, Z/3)", "--mod", "3", "--max-degree", "12"],
    ["describe", "S_3", "--prime", "3", "--max-degree", "6"],
    ["series", "O(8)"],
    ["series", "wr(2, Z/4) x Z/3", "--prime", "3"],
    ["series", "GL(2) x Z/2", "--mod", "2"],
    ["series", "S_3", "--mod", "2"],
    ["sylow", "6", "--prime", "2", "--max-degree", "8"],
    ["presentation", "Sp(4)"],
    ["galois-exponent", "--prime", "5", "--degree", "4"],
    ["bound", "G2"],
]
ROW_AUDIT = [[*argv, "--format", fmt] for argv in _AUDITED_REQUESTS for fmt in ("table", "json")]


@pytest.mark.parametrize("argv", ROW_AUDIT, ids=[" ".join(argv) for argv in ROW_AUDIT])
def test_no_verb_builds_a_degree_row(argv):
    # the writers read the stored series; only a reader of ``rows`` builds rows
    child = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_ROW_PROBE), *argv],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0 and child.stdout, child.stderr
    assert child.stderr == "0\n"


# End-to-end checks, one fresh process each: (argv as shell words, exit code,
# stdout, stderr, seconds).  An expected output of None is not read, a str is
# the sha256 of the bytes, bytes are the bytes and a function is a predicate;
# "-c" and "-m" run a Python command line instead of the CLI.
_ONES, _P15 = "1" * 4000, 10**15 + 37
# -c programs that run the CLI on their own arguments with stdout or stderr
# closed, or with stderr a pipe whose reader has gone
_EXEC_CLI = 'os.execv(sys.executable, [sys.executable, "-m", "chowbg.cli", *sys.argv[1:]])'
_STDOUT_CLOSED = f"-c 'import os, sys; os.close(1); {_EXEC_CLI}'"
_STDERR_CLOSED = f"-c 'import os, sys; os.close(2); {_EXEC_CLI}'"
_STDERR_GONE = f"-c 'import os, sys; r, w = os.pipe(); os.close(r); os.dup2(w, 2); {_EXEC_CLI}'"
_SO4_REFUSAL = (
    b"unsupported: CH^*(BSO(4)) for even rank is not generated by Chern classes of the "
    b"standard representation and has no complete description in this catalog\n"
)
_Z2_TO_1 = b"group: Z/2\nfield: C\nlocalization: integral\nprovenance: exact\n  0: Z\n  1: Z/2\n"
END_TO_END = [
    ("describe O(3) --max-degree 3", 0, None, b"", 60),
    ("describe 'Z/5 x GL(1)' --field Q --max-degree 8 --format json", 0, None, b"", 60),
    ("describe 'wr(2, Z/2) x O(3)' --max-degree 6", 0, None, b"", 60),
    ("sylow 6 --prime 2 --max-degree 3 --format json", 0, None, b"", 60),
    ("galois-exponent --prime 5 --degree 4 --format json", 0, None, b"", 60),
    ("presentation 'Sp(4)'", 0, None, b"", 60),
    ("bound G2 --format json", 0, None, b"", 60),
    ("describe --help", 0, lambda out: out.startswith(b"usage: chowbg describe "), b"", 60),
    (
        "describe Z/2 --max-degree -1",
        2, b"", lambda err: b"\nusage: chowbg describe" in b"\n" + err, 60,
    ),
    (f"describe Z/2 --max-degree -{_ONES}", 2, b"", lambda err: len(err) < 300, 60),
    (f"describe Z/2 --prime {_ONES}", 2, b"", lambda err: len(err) < 300, 60),
    (f"describe Z/2 --max-degree x{_ONES}", 2, b"", lambda err: len(err) < 300, 60),
    ("describe Z/2 --max-degree 100000", 0, None, b"", 10),
    (
        "describe Z/2 --max-degree 1000000",
        0, lambda out: out.splitlines()[-1] == b"  1000000: Z/2", b"", 30,
    ),
    ("describe Z/3 --field 'F_2(mu_1000000007)' --max-degree 2", 0, None, b"", 10),
    (f"describe '{WREATH_2000}'", 0, None, b"", 10),
    (f"series '{WREATH_2000}' --format json", 0, None, b"", 10),
    (
        "sylow 3 --prime 3 --field Q",
        3, b"", lambda err: b"roots of unity of order 3" in err and b"-th" not in err, 60,
    ),
    ("describe 'Z/3 x GL(1) x Z/3' --field Q", 3, None, None, 60),
    (
        "describe 'Z/3 x wr(2, S_3)' --field F_5",
        3, b"", b"unsupported: F_5 lacks the roots of unity of order 3, and Z/3 meets other "
        b"3-torsion in Z/3 x wr(2, S_3); only a single Z/p is established over such fields\n", 60,
    ),
    (f"galois-exponent --prime {_P15} --degree 4", 0, None, b"", 5),
    (f"describe Z/{_P15} --max-degree 2", 0, None, b"", 5),
    (f"describe S_3 --prime {_P15}", 0, None, b"", 5),
    (f"describe Z/3 --field F_{_P15}", 0, None, b"", 5),
    (
        f"sylow {LONG_INTEGER} --prime 2",
        2, None, lambda err: len(err) < 300 and b"integer of 4301 digits is too long" in err, 60,
    ),
    ("sylow 100000000000 --prime 100000000003 --max-degree 2", 0, None, b"", 5),
    (f"describe '{FLAT_4000}' --max-degree 1", 0, None, b"", 60),
    (
        "-c 'from chowbg import chow_model, parse_field, parse_group_expr as p; "
        't = " x ".join(["GL(1) x O(1)"] * 2000); C = parse_field("C"); '
        "assert chow_model(p(t), C, 1) is chow_model(p(t), C, 1)'",
        0, b"", b"", 60,
    ),
    (
        "-c 'import copy, pickle; from chowbg import parse_group_expr as p; "
        'g = p("wr(2, " * 2000 + "Z/2" + ")" * 2000); '
        "assert pickle.loads(pickle.dumps(g)) is g and copy.deepcopy(g) is g; "
        'assert repr(g).count("Wreath(") == 2000\'',
        0, b"", b"", 10,
    ),
    (
        """-c '
from chowbg import chow_model, parse_field
from chowbg.errors import UnsupportedError
from chowbg.groups import O, Symmetric
for g, k in ((O(10**5000), "F_2"), (Symmetric(10**5000), "C")):
    try:
        chow_model(g, parse_field(k), 2)
    except UnsupportedError as refusal:
        assert len(str(refusal)) < 300, str(refusal)
    else:
        raise SystemExit("no refusal")
'""",
        0, b"", b"", 60,
    ),
    (
        """-c '
import copy, pickle
from chowbg import ChowTable, chow_model, chow_model_localized, cli, parse_field, parse_group_expr
g, C = parse_group_expr("wr(2, wr(3, Z/3))"), parse_field("C")
for t in (chow_model(g, C, 12), chow_model_localized(g, C, 12, 2)):
    slots = (t.bound, t.free, t.levels, t.group, t.field, t.localization, t.provenance)
    twins = (
        pickle.loads(pickle.dumps(t)),
        copy.deepcopy(t),
        ChowTable(*slots),
        cli.table_from_json_obj(cli.table_to_json_obj(t)),
    )
    assert all(twin == t for twin in twins), twins
'""",
        0, b"", b"", 60,
    ),
    # a closed stdout keeps a refusal's exit code, a closed stderr every code
    (f"{_STDOUT_CLOSED} describe Z/2", 1, b"", b"", 60),
    (f"{_STDOUT_CLOSED} describe 'SO(4)'", 3, b"", _SO4_REFUSAL, 60),
    (f"{_STDERR_CLOSED} describe 'SO(4)'", 3, b"", b"", 60),
    (f"{_STDERR_GONE} describe 'SO(4)'", 3, b"", b"", 60),
    (f"{_STDERR_CLOSED} describe Z/", 2, b"", b"", 60),
    (f"{_STDERR_GONE} describe Z/", 2, b"", b"", 60),
    # main() ends the process without interpreter teardown, after the answer
    # and the exit handlers, unless a profiler or another thread waits for it
    (
        """-c '
import atexit, gc, runpy, sys
atexit.register(lambda: print("exit handler, collector on:", gc.isenabled()))
atexit.register(lambda: print("exit handler", file=sys.stderr))
sys.argv = ["chowbg", *sys.argv[1:]]
runpy.run_module("chowbg.cli", run_name="__main__")
' describe Z/2 --max-degree 1""",
        0, _Z2_TO_1 + b"exit handler, collector on: False\n", b"exit handler\n", 60,
    ),
    (
        """-c '
import atexit, runpy, sys
atexit.register(lambda: print("exit handler", file=sys.stderr))
sys.argv = ["chowbg", *sys.argv[1:]]
runpy.run_module("chowbg.cli", run_name="__main__")
' describe 'SO(4)'""",
        3, b"", _SO4_REFUSAL + b"exit handler\n", 60,
    ),
    (
        # teardown drops the entries of sys.modules, frozen heap or not
        """-c '
import os, runpy, sys
class Loud:
    def __del__(self, write=os.write):
        write(2, b"torn down\\n")
sys.modules["loud"] = Loud()
sys.argv = ["chowbg", *sys.argv[1:]]
runpy.run_module("chowbg.cli", run_name="__main__")
' describe Z/2 --max-degree 1""",
        0, _Z2_TO_1, b"", 60,
    ),
    (
        "-m cProfile -m chowbg.cli describe Z/2 --max-degree 1",
        0, lambda out: out.startswith(_Z2_TO_1) and b" function calls " in out, b"", 60,
    ),
    (
        """-c '
import runpy, sys, threading, time
def late():
    time.sleep(0.5)
    print("thread done", file=sys.stderr)
threading.Thread(target=late).start()
sys.argv = ["chowbg", *sys.argv[1:]]
runpy.run_module("chowbg.cli", run_name="__main__")
' describe Z/2 --max-degree 1""",
        0, _Z2_TO_1, b"thread done\n", 60,
    ),
]
# sha256 pins of the paper's constructions at large degree: B(Z/2), cyclic powers,
# a wreath tower, the views of wreath products and of S_n, and a Sylow bound
PINS = {
    "describe Z/2 --max-degree 100000 --format json":
        "f327b1b1b8d583ea71ab9e5f11ae48882f347b980077289797cbdb01cde8d5e6",
    "series Z/2 --max-degree 1000000":
        "2e22ac77befa200c5426e393e627b97e492357e26c178f60125ce3498bf5eee5",
    "describe 'wr(101, Z/2)' --max-degree 300":
        "8589d9028e3d01cb3b34b3c145177dcbd0b778f1886eff28abfda5747c51e028",
    "describe 'wr(7, GL(2))' --max-degree 120":
        "28e1b672ea1acdecda6ece09a2c5b977802d2a7f24d6f8e73666aead6632ab25",
    f"describe '{WREATH_900}' --max-degree 0":
        "e679941d7d1d0c05c4d308c531e32e31ca4924151c01493e64830c0ffdea04eb",
    "describe 'wr(2, wr(3, Z/3))' --prime 2 --max-degree 12 --format json":
        "7981e0f623782a0cf458852a0b83b52b6001a7aed8565897cff91b739a3b741c",
    "describe 'wr(2, Z/2) x wr(3, Z/3)' --mod 3 --max-degree 12":
        "424a7526e08e9898f624c5a0c8dd2592227d0e034497f043cda7613292ecfc0f",
    "describe S_4 --mod 3 --max-degree 8 --format json":
        "7a85ba79b8da02c325fb5b7dc4900fa32345152abfc91b7c6cda996ecfee31c1",
    "describe S_3 --max-degree 12":
        "bc1ef80f21eb3c9721967a45bedb47694983d80334b71628c446f373cb44dc47",
    "describe S_7 --prime 5 --max-degree 40":
        "c9dba98d8d802182852235f29cd35fd497a6cbad49ea68399510011ee8bddd81",
    "describe S_7 --prime 7 --max-degree 5 --format json":
        "14b5509e6d6694df464592df70a451e503978ed8742e3b8388f192a3b69a9b99",
    "series S_9 --mod 5 --max-degree 40":
        "3e07c4620afe677c53b639bef69644f4b81b81f9be2605997f97f273e9f242ae",
    "describe S_3 --mod 2 --max-degree 10":
        "a5bd9866f96406b4e703ddbc2435475879d7b69c23403cfa19dcdb732efb4e4a",
    "sylow 12 --prime 2 --max-degree 6":
        "3789d43da9082d8c61001651fdd42f9db15db8531c3dba0b28c9344fb5d47811",
    # Z/3 next to other 3-torsion over fields that hold mu_3, and a cyclotomic
    # Z/3 over Q whose company has no 3-torsion
    "describe 'wr(2, Z/3)' --field C --max-degree 6":
        "db248bfd79095d66c2e65518e37db051430b1efe378772ec24717031ae025d93",
    "describe 'Z/3 x S_3' --field C --max-degree 6":
        "9d1b6b5d71a166f7eb3dd99a57c65a0fd20e1d6b2a5adddbd1159914ee4854da",
    "describe 'Z/3 x wr(2, S_3)' --field C --max-degree 6":
        "7e6c10d056288b601666d9450e86eb4423e45bae0a3542a2c5e54b7dfe9c4cc4",
    "describe 'Z/3 x wr(2, Z/3)' --field C --max-degree 6":
        "bb322c00abbd3c518773556efd82846d3e52dc0b8b0261ffed5d1d2629603ad7",
    "describe 'wr(2, Z/3)' --field 'Q(mu_3)' --max-degree 6":
        "989b29a12dc5eb1cb4a04c705b54229da930857eefd909ffa1a27f5a3b9c478c",
    "describe 'Z/3 x S_3' --field 'Q(mu_3)' --max-degree 6":
        "d9f55bdd42e60b24dd6bdf37c7cee7162bbe4d7436c832af23e400d37a9b6b58",
    "describe 'Z/3 x wr(2, S_3)' --field 'Q(mu_3)' --max-degree 6":
        "566c109d55db276b1007840b87030135015e2053f5c9e5e18574a53bd030600a",
    "describe 'Z/3 x wr(2, Z/3)' --field 'Q(mu_3)' --max-degree 6":
        "397a755fc9be66eede969ace9aa675506aae4966e6d629126fa5bb7c8a7f37e6",
    "describe Z/3 --field Q --max-degree 6":
        "2d69e7f93460ae06559e90ae71b57cb3e375ebf80a990fedb5c01237462b09b1",
    "describe 'Z/3 x O(1)' --field Q --max-degree 6":
        "eb6b6bdd9a9c8b8f31050a7d50f7e83df1ac7e31b219713afee85969470ca7c9",
    "describe 'GL(2) x Z/3' --field Q --max-degree 6":
        "ffd55c823871998c8df0e189d22809112d8b4f5a5d21c355cd8edab0b37b23d4",
    "describe 'wr(2, Z/2) x Z/3' --field Q --max-degree 6":
        "d756cc7e854ad3db0da1f9a21910d83a361bb59fbfa856fa6129c36d88e3c5c7",
}
END_TO_END += [(command, 0, digest, b"", 10) for command, digest in PINS.items()]


def _matches(expected, data: bytes) -> bool:
    if isinstance(expected, str):
        return hashlib.sha256(data).hexdigest() == expected
    return expected is None or (data == expected if isinstance(expected, bytes) else expected(data))


@pytest.mark.parametrize(
    "command, code, out, err, seconds",
    END_TO_END,
    ids=[c if len(c) < 80 else f"{c[:60]}...({len(c)})" for c, *_ in END_TO_END],
)
def test_end_to_end(command, code, out, err, seconds):
    child, took = _timed_run(shlex.split(command))
    assert child.returncode == code, child.stderr[-600:]
    assert b"Traceback" not in child.stderr
    assert _matches(out, child.stdout), child.stdout[-300:]
    assert _matches(err, child.stderr), child.stderr[-600:]
    assert took < seconds
