"""Every ordinary benchmark request against its recorded reference.

``bench/refs.json`` holds the expected outcome of each request the
benchmark can send.  Here the CLI requests of the ``cli-small`` normal and
error slices and of ``cli-large`` run in process through ``chowbg.cli.run``
and are compared by exit code, stdout digest and stderr class; the survey
library calls are compared by table digest.  The six ``nest`` requests of
``cli-small`` (deep parentheses and wreath towers) run as fresh
``python -m chowbg.cli`` processes at the default recursion limit, since a
second parse of a deep expression in one process compares two deep trees.
The six adversarial ``intmath`` requests (15-digit primes, products of two
8-digit primes) run in process like the ordinary slices.  The benchmark's
modules are imported, never changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")
sys.path.insert(0, BENCH)

from answer import digest, err_class, table_digest  # noqa: E402
from survey import bind_call  # noqa: E402
from workloads import catalog, request_key  # noqa: E402

from chowbg import cli  # noqa: E402
from chowbg.groups import format_group  # noqa: E402

ORDINARY_SLICES = ("normal", "error")


@pytest.fixture(scope="module")
def refs():
    with open(os.path.join(BENCH, "refs.json")) as f:
        return json.load(f)


def _cli_outcome(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(list(argv), out, err)
    return {"exit": code, "out": digest(out.getvalue().encode()), "err": err_class(err.getvalue())}


def _in_process_check(refs, workload, slices) -> tuple[int, list]:
    """Requests checked, and the mismatches among them, of the given slices."""
    checked, mismatches = 0, []
    for slice_name, argv in catalog(workload):
        if slice_name not in slices:
            continue
        ref = refs[workload][request_key(argv)]
        got = _cli_outcome(argv)
        if got != {key: ref[key] for key in got}:
            mismatches.append((argv, got))
        checked += 1
    return checked, mismatches


@pytest.mark.parametrize("workload", ["cli-small", "cli-large"])
def test_cli_requests_match_references(refs, workload):
    checked, mismatches = _in_process_check(refs, workload, ORDINARY_SLICES)
    assert mismatches == []
    assert checked == {"cli-small": 1034, "cli-large": 32}[workload]


def test_intmath_requests_match_references(refs):
    checked, mismatches = _in_process_check(refs, "cli-small", ("intmath",))
    assert mismatches == []
    assert checked == 6


def test_survey_calls_match_references(refs):
    mismatches = []
    requests = [request for _, request in catalog("survey")]
    for request in requests:
        table = bind_call(request)()
        got = table_digest(table, format_group(table.group))
        if got != refs["survey"][request_key(request)]["digest"]:
            mismatches.append(request)
    assert mismatches == []
    assert len(requests) == 1376


def test_nest_requests_match_references_in_fresh_processes(refs):
    env = dict(os.environ, PYTHONPATH=os.path.join(BENCH, "..", "src"))
    checked, mismatches = 0, []
    for slice_name, argv in catalog("cli-small"):
        if slice_name != "nest":
            continue
        child = subprocess.run(
            [sys.executable, "-m", "chowbg.cli", *argv], env=env, capture_output=True, timeout=60
        )
        err = child.stderr.decode("utf-8")
        got = {"exit": child.returncode, "out": digest(child.stdout), "err": err_class(err)}
        ref = refs["cli-small"][request_key(argv)]
        if got != {key: ref[key] for key in got}:
            mismatches.append((argv[0], len(argv[1]), got))
        checked += 1
    assert mismatches == []
    assert checked == 6
