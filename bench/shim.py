"""Traced CLI child: runs one chowbg CLI request with layer spans.

Usage: python bench/shim.py REPORT_PATH ARG...

Installs the tracer's wrappers, calls ``chowbg.cli.run(ARG...)`` exactly as
``python -m chowbg.cli ARG...`` would, and writes its spans, counts and
timings to REPORT_PATH as JSON.
"""

from time import perf_counter

start = perf_counter()  # the shim's own time is measured from here

import json  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402

import_start = perf_counter()
import chowbg.cli  # noqa: E402

import_s = perf_counter() - import_start


def main() -> int:
    trace = tracer.Tracer()
    trace.install()
    for stream in (sys.stdout, sys.stderr):
        stream.reconfigure(encoding="utf-8")
    try:
        return chowbg.cli.run(sys.argv[2:])
    finally:
        sys.stdout.flush()
        report = {
            "import_s": import_s,
            "inside_s": perf_counter() - start,
            "spans": trace.spans,
            "counts": trace.counts,
            "cache": trace.cache_counts(),
            "answers": trace.answers,
        }
        with open(sys.argv[1], "w") as f:
            json.dump(report, f)


if __name__ == "__main__":
    sys.exit(main())
