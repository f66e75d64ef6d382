"""The CLI as a fresh ``python -m chowbg.cli`` process.

In-process tests call ``chowbg.cli.run`` and cannot see what only a new
interpreter shows: warnings printed while ``runpy`` starts the module, or
errors raised when the standard streams are flushed at exit.  Here a
stratified sample of the benchmark's ``cli-small`` references runs one
process per request, and a reader that leaves early must not get a
traceback.  The benchmark's modules are imported, never changed.
"""

from __future__ import annotations

import ast
import json
import os
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
    start = time.perf_counter()
    child = subprocess.run([*CLI, *argv], env=ENV, capture_output=True, timeout=60)
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


# runs chowbg.cli as `python -m` does and prints which of argparse and json it loaded
_STDLIB_PROBE = """
    import runpy, sys
    sys.argv = ["chowbg", *sys.argv[1:]]
    try:
        runpy.run_module("chowbg.cli", run_name="__main__")
    except SystemExit as exc:
        print(exc.code, [m for m in ("argparse", "json") if m in sys.modules], file=sys.stderr)
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
    assert child.returncode == 0
    assert child.stderr.splitlines()[-1] == loaded


# The chowbg modules and their non-blank lines that one text request of each
# verb compiles, with no cached bytecode: today all six compile the same ten
# modules (help and usage errors also compile _usage, the argparse builder).
# The bounds are upper bounds, so a verb may come to compile less.
COMPILED_SURFACE = {
    "describe": (10, 1650),
    "series": (10, 1650),
    "presentation": (10, 1650),
    "galois-exponent": (10, 1650),
    "bound": (10, 1650),
    "sylow": (10, 1650),
}
# The modules compiled only where their code first runs: big-integer
# primality and factoring, the cyclotomic arithmetic of fields without all
# roots of unity, the JSON answers, the repr and pickling of group tree nodes
# and the row API.  A text table over C and a survey call run none of them.
ON_DEMAND = {"_cyclotomic.py", "_factoring.py", "_json.py", "_nodes.py", "_rows.py"}
# runs chowbg.cli as `python -m` does, and prints each compiled chowbg file
# with its non-blank line count, from the "compile" audit events
_SURFACE_PROBE = """
    import os, runpy, sys
    package = os.path.join(sys.argv[1], "")
    compiled = {}
    def hook(event, args):
        if event == "compile" and isinstance(args[1], str) and args[1].startswith(package):
            source = args[0] if isinstance(args[0], bytes) else args[0].encode()
            compiled[args[1][len(package):]] = sum(1 for line in source.splitlines() if line.strip())
    sys.addaudithook(hook)
    sys.argv = ["chowbg", *sys.argv[2:]]
    try:
        runpy.run_module("chowbg.cli", run_name="__main__")
    except SystemExit as exc:
        print(exc.code, compiled, file=sys.stderr)
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
    code, compiled = child.stderr.split(" ", 1)
    assert code == "0"
    return ast.literal_eval(compiled)


@pytest.mark.parametrize(
    "fmt, loaded", [("table", set()), ("json", {"_json.py"})], ids=["text", "json"]
)
def test_a_table_request_compiles_only_its_writer(fmt, loaded, tmp_path):
    compiled = _compiled_by(["describe", "O(8)", "--max-degree", "33", "--format", fmt], tmp_path)
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
    # the CI line: traced runs import and compile what timed runs do
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


# runs chowbg.cli as `python -m` does and prints its exit code and the number
# of DegreeRow objects made, counted by a replaced DegreeRow.__new__
_ROW_PROBE = """
    import runpy, sys
    from chowbg.tables import DegreeRow
    made = []
    def counting_new(cls, *args):
        made.append(cls)
        return object.__new__(cls)
    DegreeRow.__new__ = staticmethod(counting_new)
    sys.argv = ["chowbg", *sys.argv[1:]]
    try:
        runpy.run_module("chowbg.cli", run_name="__main__")
    except SystemExit as exc:
        print(exc.code, len(made), file=sys.stderr)
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
    assert child.stderr == "0 0\n"
