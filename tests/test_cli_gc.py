"""The CLI process runs without the cyclic garbage collector.

``chowbg.cli.main`` turns the collector off for its one request and freezes
the heap before it exits, so that neither the request, its exit handlers
nor an interpreter shutdown, where main() does not skip it, traces the whole
heap.  That is safe only because a request leaves a constant amount of
cyclic garbage, whatever its input size; the in-process tests pin that
bound.  ``run`` and the library must leave the collector as they find it,
since tests, the benchmark's shim and library callers share the process
with them.  Every in-process test restores the collector's state.
"""

from __future__ import annotations

import gc
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from chowbg.cli import run

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# A well-formed request is read without argparse and leaves no cyclic
# garbage.  Help and usage errors build argparse's parser, whose graph is
# the garbage they leave: 328 objects for the usage errors below.
GARBAGE_BOUND = 0
USAGE_ERROR_BOUND = 400

VERB_CALLS = [
    ["describe", "wr(2, Z/2) x O(3)", "--max-degree", "6"],
    ["series", "GL(2)", "--mod", "2", "--max-degree", "4"],
    ["presentation", "Sp(4)"],
    ["galois-exponent", "--prime", "5", "--degree", "4"],
    ["bound", "G2"],
    ["sylow", "6", "--prime", "2", "--max-degree", "3"],
]
TOWER_2000 = "wr(2, " * 2000 + "Z/2" + ")" * 2000


def _garbage_after(argv):
    """The exit code of one run() with the collector off, and the number of
    unreachable objects a collection finds after it."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code = run(argv, io.StringIO(), io.StringIO())
        return code, gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("argv", VERB_CALLS, ids=[argv[0] for argv in VERB_CALLS])
def test_one_request_leaves_bounded_cyclic_garbage(argv, fmt):
    code, garbage = _garbage_after([*argv, "--format", fmt])
    assert code == 0
    assert garbage <= GARBAGE_BOUND


@pytest.mark.parametrize(
    "argv",
    [["describe", "Z/2", "--max-degree", "-1"], ["describe", "Z/2", "--format", "xml"]],
    ids=["refused-value", "bad-choice"],
)
def test_a_usage_error_leaves_only_the_parser_graph(argv, capsys):
    code, garbage = _garbage_after(argv)
    assert code == 2 and "usage:" in capsys.readouterr().err
    assert 0 < garbage <= USAGE_ERROR_BOUND


@pytest.mark.parametrize(
    "argv, code",
    [
        (["describe", "Z/³"], 2),
        (["describe", "SO(6)"], 3),
        (["describe", TOWER_2000, "--max-degree", "0"], 0),
    ],
    ids=["parse-error", "unsupported", "tower-2000"],
)
def test_refusals_and_deep_towers_leave_bounded_cyclic_garbage(argv, code):
    assert _garbage_after(argv) == (code, _garbage_after(["describe", "Z/2"])[1])


def test_garbage_does_not_grow_with_the_bound():
    small = _garbage_after(["describe", "Z/2", "--max-degree", "10"])
    large = _garbage_after(["describe", "Z/2", "--max-degree", "10000"])
    assert small == large
    assert small[1] <= GARBAGE_BOUND


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(enabled):
    was_enabled = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv in VERB_CALLS:
            assert run(argv, io.StringIO(), io.StringIO()) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_main_exits_with_the_collector_off_and_the_heap_frozen():
    # main() may end the process without returning: an exit handler reports
    probe = """
        import atexit, gc, runpy, sys
        assert gc.isenabled() and gc.get_freeze_count() == 0
        atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))
        sys.argv = ["chowbg", "describe", "O(3)", "--max-degree", "2"]
        runpy.run_module("chowbg.cli", run_name="__main__")
        """
    child = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(probe)],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout.startswith("group: O(3)\n")
    assert child.stdout.splitlines()[-1] == "False True"
