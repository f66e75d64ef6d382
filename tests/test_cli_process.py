"""The CLI as a fresh ``python -m chowbg.cli`` process.

In-process tests call ``chowbg.cli.run`` and cannot see what only a new
interpreter shows: warnings printed while ``runpy`` starts the module, or
errors raised when the standard streams are flushed at exit.  Here a
stratified sample of the benchmark's ``cli-small`` references runs one
process per request, and a reader that leaves early must not get a
traceback.  The benchmark's modules are imported, never changed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = str(ROOT / "bench")
sys.path.insert(0, BENCH)

from answer import digest, err_class  # noqa: E402
from test_cli import OVER_BOUND_COMPOSITE, OVER_BOUND_REQUESTS  # noqa: E402
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


def test_factoring_refusal_names_the_number_typed():
    child, seconds = _timed_run(["describe", f"Z/{OVER_BOUND_COMPOSITE}"])
    assert (child.returncode, child.stdout) == (3, b"")
    assert child.stderr.decode("utf-8") == (
        f"unsupported: cannot certify the prime factors of {OVER_BOUND_COMPOSITE}: "
        "exact primality is only available below 3317044064679887385961981\n"
    )
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


def test_cli_import_loads_neither_json_nor_dataclasses():
    # json is imported by the JSON writer only; Record replaces dataclasses
    probe = "import sys, chowbg.cli; print([m for m in ('json', 'dataclasses') if m in sys.modules])"
    child = subprocess.run(
        [sys.executable, "-c", probe], env=ENV, capture_output=True, text=True, timeout=60
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")
