"""Survey child: one session of chowbg library calls in one process.

Usage: python bench/survey.py --plan I,J,... [--trace] [--calibrate SECONDS]

Makes the calls of a survey session over the survey units I, J, ... (see
workloads.py) and prints one JSON line with a record per call:
[seconds, digest, summands, classes, error, index of its first span].  The
chow_model memo is cleared only here, at start.  With --calibrate SECONDS
the calibration kernel (calibrate.py) runs before the first call, before
each call that follows at least SECONDS of call time since its last run
(so right before and right after every longer call), and after the last
call; the report lists [position, seconds] of each run of it, where a run
just before call i is at position i - 0.5.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import_start = perf_counter()
import chowbg.cli  # noqa: E402,F401  (the same import a CLI process pays)

IMPORT_S = perf_counter() - import_start

from chowbg import models  # noqa: E402
from chowbg.fields import parse_field  # noqa: E402
from chowbg.groups import format_group, parse_group_expr  # noqa: E402

import tracer  # noqa: E402
from calibrate import kernel  # noqa: E402
from answer import answer_stats, table_digest  # noqa: E402
from workloads import survey_session  # noqa: E402

FIELD = parse_field("C")
# Size of the in-process calibration kernel: about 10 ms on a 2-core machine.
CAL_ROUNDS = 5_000


def bind_call(request: tuple):
    """Bind a survey request to its library call; parsing happens here,
    outside the timed call."""
    kind = request[0]
    if kind == "sylow":
        _, n, p, degree = request
        return lambda: models.chow_symmetric_sylow_bound(n, p, degree, FIELD)
    group = parse_group_expr(request[1])
    if kind == "model":
        return lambda: models.chow_model(group, FIELD, request[2])
    if kind == "local":
        return lambda: models.chow_model_localized(group, FIELD, request[2], request[3])
    if kind == "modp":
        return lambda: models.chow_model_mod_p(group, FIELD, request[2], request[3])
    raise ValueError(f"unknown survey request {request!r}")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--calibrate", type=float, default=0.0)
    args = parser.parse_args()

    models.chow_model.cache_clear()
    trace = None
    if args.trace:
        trace = tracer.Tracer()
        trace.install()
    else:
        tracer.check_unwrapped()

    records = []
    calibration = []

    def calibrate(position: float) -> None:
        t0 = perf_counter()
        kernel(CAL_ROUNDS)
        calibration.append([position, perf_counter() - t0])

    start = perf_counter()
    busy = since_calibration = 0.0
    plan = [int(i) for i in args.plan.split(",")]
    requests = survey_session(plan)
    for index, request in enumerate(requests):
        if args.calibrate and (index == 0 or since_calibration >= args.calibrate):
            calibrate(index - 0.5)
            since_calibration = 0.0
        call = bind_call(request)
        first_span = len(trace.spans) if trace is not None else 0
        t0 = perf_counter()
        try:
            table = call()
        except Exception as exc:  # run.py counts it as a wrong answer
            dt = perf_counter() - t0
            busy += dt
            since_calibration += dt
            records.append([dt, None, 0, 0, type(exc).__name__, first_span])
            continue
        dt = perf_counter() - t0
        busy += dt
        since_calibration += dt
        digest = table_digest(table, format_group(table.group))
        records.append([dt, digest, *answer_stats(table), None, first_span])
    if args.calibrate:
        calibrate(len(requests) - 0.5)
    report = {"records": records, "busy_s": busy, "loop_s": perf_counter() - start, "calibration": calibration}
    if trace is not None:
        report.update(spans=trace.spans, counts=trace.counts, cache=trace.cache_counts())
    report.update(import_s=IMPORT_S, inside_s=perf_counter() - START)
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
