"""chowbg benchmark: closed-loop workloads driven from outside the package.

Usage (from the repository root):
  python3 bench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0
  python3 bench/run.py --workload survey --seed 1 --seconds 20 --trace 1

Workloads (see WORKLOADS.md): cli-small and cli-large start one
``python -m chowbg.cli`` process per request; survey makes library calls in
one process per session.  One client sends each request only after the
previous one has answered.  Every output is checked against bench/refs.json.

With --trace 0 the run is timed and prints the end-to-end metrics.  It
serves a fixed request set, sized from --seconds so that it takes about that
long on a 2-core machine at the seed commit: whole blocks of cli-small, whole
cycles of cli-large, whole passes of survey sessions over every plan.  A
faster or slower commit serves the same requests.  Its times are scaled by
a calibration probe to a reference machine speed (see CAL_REF_S).  With
--trace 1 it runs a fixed number of requests under the tracer, replays them
untraced to measure the tracer's overhead, and prints the per-layer metrics.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from answer import digest, err_class  # noqa: E402
from workloads import (  # noqa: E402
    LARGE_CYCLE, SMALL_BLOCK, WORKLOADS, catalog, request_key, survey_plan_order, survey_session, take,
)

# A request slower than this (in wall time) fails.  An adversarial CLI
# request is killed at it; an ordinary one runs on to KILL_LIMIT_S, so that a
# slow but correct answer is told apart from a hang.  Each limit is several
# times the slowest ordinary request, and the adversarial _intmath requests
# take more than twice the cli-small limit, so no verdict depends on how fast
# the machine happens to be.
REQUEST_LIMIT_S = {"cli-small": 1.5, "cli-large": 10.0, "survey": 5.0}
KILL_LIMIT_S = {"cli-small": 5.0, "cli-large": 30.0}
# Seconds one unit of a timed run (a block of cli-small, a cycle of
# cli-large, a pass of survey sessions over every plan), calibration and
# set-up probes included, takes on a 2-core machine at the seed commit.
UNIT_SECONDS = {"cli-small": 9.0, "cli-large": 16.0, "survey": 37.0}
UNIT_REQUESTS = {"cli-small": SMALL_BLOCK, "cli-large": LARGE_CYCLE}
# Requests (survey: sessions) per traced run: the traced run and its
# untraced replay take about 20-30 s together on a 2-core machine at the
# seed commit.
TRACE_REQUESTS = {"cli-small": 80, "cli-large": LARGE_CYCLE}
TRACE_SURVEY_SESSIONS = 4
# A survey child that has not ended after this long is killed.
SURVEY_SESSION_LIMIT_S = 120.0
# Set-up probes per timed run, spread evenly over its requests (survey: one
# before each session) so that they see the same drifts in machine speed as
# the requests do.
SETUP_PROBES = 11
SETUP_LIMIT_S = 30.0
# Calibration.  The speed of a shared machine drifts by a third within
# seconds and between minutes, in wall and CPU time alike, so raw times of
# the same requests spread too much from run to run to compare commits.  A
# timed run therefore also starts calibrate.py, a fixed job that uses no
# chowbg code, every CAL_EVERY requests (survey: before each session and
# after the last, for the set-up probes), and scales every time it reports
# (request times, and the set-up probes) by CAL_REF_S over the median of the
# CAL_WINDOW probes nearest to it: the mean of the probes just before and
# just after it.
# Reported times are thus seconds on a machine on which the probe takes
# CAL_REF_S (about its median on a quiet 2-core machine); a change to chowbg
# moves them in full, as the probe does not run it.  A killed request is not
# scaled: it took the fixed wall-time limit, which measures no work.
CAL_PROBE = os.path.join(HERE, "calibrate.py")
CAL_REF_S = 0.12
CAL_EVERY = {"cli-small": 4, "cli-large": 2}
CAL_WINDOW = 2
# Survey calls run in a long-lived child, so it times calibrate.kernel
# in-process instead, whenever SURVEY_CAL_EVERY_S of call time has passed
# since the last time (see survey.py); its call times are scaled to a kernel
# time of SURVEY_CAL_REF_S.
SURVEY_CAL_EVERY_S = 0.1
SURVEY_CAL_REF_S = 0.010
# request_tail_s is the highest of these percentiles with at least ten
# samples beyond it.  A run's sample count depends only on --seconds, so
# every commit reports the same percentile.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TRACEBACK = b"Traceback (most recent call last)"
OUT_DIR = ".bench_out"
# Children import chowbg from the checkout's source tree (run from its root).
_ENV = dict(os.environ, PYTHONPATH=os.path.abspath("src"))


class BenchError(Exception):
    """The benchmark cannot run here (no chowbg source, stale references)."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    """Outcome of one child process; ``code`` is None when it was killed."""

    wall: float
    code: int | None
    out: bytes
    err: bytes
    maxrss_kb: int


def run_child(argv, limit: float) -> Child:
    """Run argv to completion, or kill it at ``limit`` seconds; its output is
    read as it comes and its peak RSS taken from wait4."""
    start = perf_counter()
    proc = subprocess.Popen(
        argv, env=_ENV, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    fds = (proc.stdout.fileno(), proc.stderr.fileno())
    chunks: dict[int, list[bytes]] = {fd: [] for fd in fds}
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            for fd in fds:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                timeout = None
                if not killed:
                    timeout = start + limit - perf_counter()
                    if timeout <= 0:
                        proc.kill()
                        killed, timeout = True, None
                for key, _ in sel.select(timeout):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    out, err = (b"".join(chunks[fd]) for fd in fds)
    return Child(wall, None if killed else proc.returncode, out, err, usage.ru_maxrss)


def setup_probe() -> float:
    """Wall time of a Python process that only imports chowbg.cli."""
    child = run_child([sys.executable, "-c", "import chowbg.cli"], SETUP_LIMIT_S)
    if child.code != 0:
        raise BenchError(f"a setup probe could not import chowbg.cli: {child.err.decode(errors='replace')}")
    return child.wall


class Calibration:
    """Wall times of calibrate.py, each at a position in the run (a request
    or session index; a probe made just before request i is at i - 0.5)."""

    def __init__(self, ref_s: float = CAL_REF_S, probes: list | None = None):
        self.ref_s = ref_s
        self.probes: list[tuple[float, float]] = probes or []

    def probe(self, position: float) -> None:
        child = run_child([sys.executable, CAL_PROBE], SETUP_LIMIT_S)
        if child.code != 0:
            raise BenchError(f"the calibration probe failed: {child.err.decode(errors='replace')}")
        self.probes.append((position, child.wall))

    def scale(self, position: float) -> float:
        """Factor that brings a time taken at ``position`` to the reference
        speed."""
        nearest = sorted(self.probes, key=lambda probe: abs(probe[0] - position))[:CAL_WINDOW]
        return self.ref_s / statistics.median(wall for _, wall in nearest)


# ---------------------------------------------------------------------------
# checking outputs


# Verdicts that make a run incorrect: a wrong answer, or a crash, kill or
# exception where the reference is an ordinary outcome.  'timeout' (a right
# answer too late, or an adversarial request killed at the limit) and
# 'traceback' (an adversarial request crashing, as deep nesting does today)
# only count as failed.
WRONG = {"wrong", "crash", "killed", "error"}


def kill_limit(workload: str, ref: dict) -> float:
    return REQUEST_LIMIT_S[workload] if ref.get("typed_error_ok") else KILL_LIMIT_S[workload]


def cli_verdict(ref: dict, child: Child, limit: float) -> str | None:
    """None for a correct answer within ``limit`` seconds, else why the
    request failed (see WRONG)."""
    adversarial = ref.get("typed_error_ok", False)
    if child.code is None:
        return "timeout" if adversarial else "killed"
    if TRACEBACK in child.err:
        return "traceback" if adversarial else "crash"
    kind = err_class(child.err.decode("utf-8", "replace"))
    same = child.code == ref["exit"] and digest(child.out) == ref["out"] and kind == ref["err"]
    # Adversarial inputs may also be refused with a typed error.
    if not same and not (adversarial and child.code in (2, 3) and not child.out and kind):
        return "wrong"
    return "timeout" if child.wall > limit else None


def survey_verdict(ref: dict, record: list, limit: float) -> str | None:
    seconds, table_digest, summands, classes, error, _ = record
    if error is not None:
        return "error"
    if table_digest != ref["digest"] or (summands, classes) != (ref["summands"], ref["classes"]):
        return "wrong"
    return "timeout" if seconds > limit else None


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond it) of the highest nearest-rank
    percentile in TAIL_PERCENTILES with at least ten samples beyond it, or
    of the median when there are too few samples."""
    xs = sorted(values)
    for percentile in TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile / 100 * len(xs)))
        if len(xs) - rank >= 10 or percentile == 50:
            return percentile, xs[rank - 1], len(xs) - rank


class Result:
    """The verdicts of one run and its raw wall times, each with the
    Calibration that scales it (None: not scaled) and its position there."""

    def __init__(self):
        self.times: list[tuple[Calibration | None, float, float]] = []
        self.verdicts: list[str | None] = []
        self.maxrss_kb = 0
        self.setup_times: list[tuple[float, float]] = []
        self.calibration = Calibration()
        self.checks_ok = True

    @property
    def failed(self) -> int:
        return sum(v is not None for v in self.verdicts)

    @property
    def correct(self) -> bool:
        return self.checks_ok and not WRONG.intersection(self.verdicts)

    def summary(self) -> str:
        reasons = Counter(v for v in self.verdicts if v is not None)
        detail = ", ".join(f"{k} {n}" for k, n in sorted(reasons.items()))
        return f"{len(self.verdicts)} requests, {self.failed} failed" + (f" ({detail})" if detail else "")


def end_to_end(result: Result) -> tuple[dict, str]:
    """The end-to-end metrics, with every time scaled to the reference speed,
    and a note with the raw figures."""
    scale = result.calibration.scale
    times = [wall * cal.scale(position) if cal else wall for cal, position, wall in result.times]
    setups = [wall * scale(position) for position, wall in result.setup_times]
    completed = sum(v not in ("timeout", "killed") for v in result.verdicts)
    percentile, tail_value, beyond = tail(times)
    metrics = {
        "request_p50_s": (statistics.median(times), "s"),
        "request_tail_s": (tail_value, "s"),
        "throughput_rps": (completed / sum(times), "1/s"),
        "peak_rss_mb": (result.maxrss_kb / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "success_frac": (1 - result.failed / len(result.verdicts), "frac"),
    }
    raw = [wall for _, _, wall in result.times]
    ordinary = [wall for (_, _, wall), v in zip(result.times, result.verdicts) if v is None]
    probes = [wall for _, wall in result.calibration.probes]
    note = (
        f"request_tail_s is p{percentile} of {len(times)} samples ({beyond} beyond it)"
        + ("; fewer than ten samples beyond the tail percentile" if beyond < 10 else "")
        + f"\n  raw wall: request p50 {statistics.median(raw):.4f} s, slowest passing request"
        + f" {max(ordinary, default=0.0):.4f} s; calibration probe median {statistics.median(probes):.4f} s"
        + f" (reference {CAL_REF_S} s), min {min(probes):.4f} s, max {max(probes):.4f} s"
    )
    return metrics, note


def span_self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class LayerTotals:
    """Per-layer sums over all traced processes of one run."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.cache: Counter = Counter()
        self.interp_s = self.import_s = 0.0
        self.output_bytes = 0
        self.summands = self.classes = 0
        self.spans_out: list = []

    def add(self, report: dict, wall: float, request_ids: list[int]) -> None:
        spans = report["spans"]
        for (name, start, end, parent), own, rid in zip(spans, span_self_times(spans), request_ids):
            self.self_s[name] += own
            self.calls[name] += 1
            self.spans_out.append([rid, name, start, end, parent])
        for name, counts in report["counts"].items():
            self.counts[name].update(counts)
        self.cache.update(report["cache"])
        self.interp_s += wall - report["inside_s"]
        self.import_s += report["import_s"]

    def metrics(self, overhead: float) -> dict:
        s, calls, counts, cache = self.self_s, self.calls, self.counts, self.cache
        lookups = cache["hits"] + cache["misses"]
        return {
            "startup.interp_s": (self.interp_s, "s"),
            "startup.import_s": (self.import_s, "s"),
            "cli.run.self_s": (s["cli.run"], "s"),
            "cli.render.self_s": (s["cli.render"], "s"),
            "cli.json.self_s": (s["cli.json"], "s"),
            "cli.output_bytes": (self.output_bytes, "bytes"),
            "groups.parse.calls": (calls["groups.parse"], "count"),
            "groups.parse.self_s": (s["groups.parse"], "s"),
            "fields.parse.self_s": (s["fields.parse"], "s"),
            "fields.cyclotomic_filter.self_s": (s["fields.cyclotomic_filter"], "s"),
            "fields.galois_exponent.self_s": (s["fields.galois_exponent"], "s"),
            "presentations.expand.calls": (calls["presentations.expand"], "count"),
            "presentations.expand.self_s": (s["presentations.expand"], "s"),
            "presentations.expand.summands_out": (counts["presentations.expand"]["summands_out"], "count"),
            "graded.normalize.calls": (calls["graded.normalize"], "count"),
            "graded.normalize.self_s": (s["graded.normalize"], "s"),
            "graded.normalize.summands_in": (counts["graded.normalize"]["summands_in"], "count"),
            "graded.tensor.calls": (calls["graded.tensor"], "count"),
            "graded.tensor.self_s": (s["graded.tensor"], "s"),
            "graded.tensor.summands_out": (counts["graded.tensor"]["summands_out"], "count"),
            "graded.from_table.self_s": (s["graded.from_table"], "s"),
            "graded.to_table.self_s": (s["graded.to_table"], "s"),
            "graded.roundtrips": (calls["graded.from_table"] + calls["graded.to_table"], "count"),
            "cyclic.power_codim.calls": (calls["cyclic.power_codim"], "count"),
            "cyclic.power_codim.self_s": (s["cyclic.power_codim"], "s"),
            "cyclic.power_codim.summands_in": (counts["cyclic.power_codim"]["summands_in"], "count"),
            "cyclic.power_codim.summands_out": (counts["cyclic.power_codim"]["summands_out"], "count"),
            "models.chow_model.calls": (lookups, "count"),
            "models.cache_hits": (cache["hits"], "count"),
            "models.cache_misses": (cache["misses"], "count"),
            "models.cache_hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
            "models.cache_entries": (cache["entries"], "count"),
            "models.self_s": (sum(v for k, v in s.items() if k.startswith("models.")), "s"),
            "intmath.is_prime.calls": (calls["intmath.is_prime"], "count"),
            "intmath.is_prime.self_s": (s["intmath.is_prime"], "s"),
            "intmath.factorint.misses": (cache["factorint_misses"], "count"),
            "answer.summands": (self.summands, "count"),
            "answer.classes": (self.classes, "count"),
            "trace.overhead_frac": (overhead, "frac"),
        }

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans_out:
                f.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# workloads


def run_units(workload: str, seconds: float) -> int:
    return max(1, round(seconds / UNIT_SECONDS[workload]))


def cli_timed(workload: str, seed: int, seconds: float, refs: dict) -> Result:
    result = Result()
    limit = REQUEST_LIMIT_S[workload]
    requests = take(workload, seed, run_units(workload, seconds) * UNIT_REQUESTS[workload])
    for i, request in enumerate(requests):
        if i % CAL_EVERY[workload] == 0:
            result.calibration.probe(i - 0.5)
        if i % math.ceil(len(requests) / SETUP_PROBES) == 0:
            result.setup_times.append((i - 0.5, setup_probe()))
        ref = refs[request_key(request)]
        child = run_child([sys.executable, "-m", "chowbg.cli", *request], kill_limit(workload, ref))
        result.times.append((result.calibration if child.code is not None else None, i, child.wall))
        result.verdicts.append(cli_verdict(ref, child, limit))
        result.maxrss_kb = max(result.maxrss_kb, child.maxrss_kb)
    result.calibration.probe(len(requests) - 0.5)
    return result


def cli_traced(workload: str, seed: int, seconds: float, refs: dict) -> tuple[Result, LayerTotals, float]:
    """Each request runs once under the shim and once plain, alternately, so
    that drifts in machine speed reach both sides of the overhead alike."""
    result, totals = Result(), LayerTotals()
    limit = REQUEST_LIMIT_S[workload]
    report_path = os.path.join(OUT_DIR, f"report-{os.getpid()}.json")
    os.makedirs(OUT_DIR, exist_ok=True)
    traced = untraced = 0.0
    start = perf_counter()
    for rid, request in enumerate(take(workload, seed, TRACE_REQUESTS[workload])):
        if perf_counter() - start > 3 * seconds:  # a slowed-down commit still ends in time
            break
        if os.path.exists(report_path):
            os.remove(report_path)
        ref = refs[request_key(request)]
        child = run_child([sys.executable, os.path.join(HERE, "shim.py"), report_path, *request], kill_limit(workload, ref))
        plain = run_child([sys.executable, "-m", "chowbg.cli", *request], kill_limit(workload, ref))
        verdict = cli_verdict(ref, child, limit)
        if child.code is not None:
            with open(report_path) as f:
                report = json.load(f)
            totals.add(report, child.wall, [rid] * len(report["spans"]))
            totals.output_bytes += len(child.out)
            answers = [tuple(a) for a in report["answers"]]
            for summands, classes in answers:
                totals.summands += summands
                totals.classes += classes
            expected = [(ref["summands"], ref["classes"])] if ref["summands"] else []
            if verdict is None and answers != expected:
                verdict = "wrong"
            if plain.code is not None:
                traced += child.wall
                untraced += plain.wall
        result.verdicts.append(verdict)
    if os.path.exists(report_path):
        os.remove(report_path)
    return result, totals, traced / untraced - 1


def _survey_child(plan: list[int], trace: bool = False, calibrate: bool = False) -> tuple[Child, dict]:
    argv = [sys.executable, os.path.join(HERE, "survey.py"), "--plan", ",".join(map(str, plan))]
    argv += ["--trace"] * trace + ["--calibrate", str(SURVEY_CAL_EVERY_S)] * calibrate
    child = run_child(argv, SURVEY_SESSION_LIMIT_S)
    if child.code != 0:
        raise BenchError(f"survey child failed: {child.err.decode(errors='replace')[-2000:]}")
    return child, json.loads(child.out)


def _check_survey(result: Result, session: int, plan: list[int], report: dict, refs: dict) -> None:
    limit = REQUEST_LIMIT_S["survey"]
    requests, records = survey_session(plan), report["records"]
    if len(records) != len(requests):
        raise BenchError(f"survey session {session} answered {len(records)} of {len(requests)} calls")
    calibration = Calibration(SURVEY_CAL_REF_S, [tuple(probe) for probe in report["calibration"]])
    for index, (request, record) in enumerate(zip(requests, records)):
        result.times.append((calibration, index, record[0]))
        result.verdicts.append(survey_verdict(refs[request_key(request)], record, limit))


def survey_timed(seed: int, seconds: float, refs: dict, plans: list) -> Result:
    """Sessions 0, 1, 2, ..., one child each, in whole passes over the
    plans.  A session's call times are scaled by its own kernel times, the
    set-up probe before session k by the calibration probes around it."""
    result = Result()
    order = survey_plan_order(seed, len(plans), run_units("survey", seconds) * len(plans))
    for session, plan in enumerate(order):
        result.calibration.probe(session - 0.5)
        result.setup_times.append((session - 0.5, setup_probe()))
        child, report = _survey_child(plans[plan], calibrate=True)
        _check_survey(result, session, plans[plan], report, refs)
        result.maxrss_kb = max(result.maxrss_kb, child.maxrss_kb)
    result.calibration.probe(len(order) - 0.5)
    return result


def survey_traced(seed: int, refs: dict, plans: list) -> tuple[Result, LayerTotals, float]:
    result, totals = Result(), LayerTotals()
    traced = untraced = 0.0
    first_rid = 0
    for session, plan in enumerate(survey_plan_order(seed, len(plans), TRACE_SURVEY_SESSIONS)):
        child, report = _survey_child(plans[plan], trace=True)
        records = report["records"]
        _check_survey(result, session, plans[plan], report, refs)
        starts = [r[5] for r in records] + [len(report["spans"])]
        request_ids = [first_rid + i for i in range(len(records)) for _ in range(starts[i], starts[i + 1])]
        totals.add(report, child.wall, request_ids)
        for record in records:
            totals.summands += record[2]
            totals.classes += record[3]
        first_rid += len(records)
        _, plain = _survey_child(plans[plan])
        traced += report["busy_s"]
        untraced += plain["busy_s"]
    return result, totals, traced / untraced - 1


# ---------------------------------------------------------------------------
# self-checks and entry point


def load_refs(workload: str) -> tuple[dict, list]:
    """The workload's references and the survey plans."""
    if not os.path.isfile(os.path.join("src", "chowbg", "cli.py")):
        raise BenchError("run from a chowbg checkout: src/chowbg/cli.py not found")
    with open(os.path.join(HERE, "refs.json")) as f:
        refs = json.load(f)
    missing = [r for _, r in catalog(workload) if request_key(r) not in refs[workload]]
    if missing:
        raise BenchError(f"{len(missing)} requests have no reference; run bench/record.py")
    return refs[workload], refs["survey-plans"]


def check_determinism(workload: str, seed: int, plans: list) -> bool:
    """The same seed draws the same requests; another seed draws others."""
    if workload == "survey":
        def draw(s):
            return [survey_session(plans[plan]) for plan in survey_plan_order(s, len(plans), len(plans))]
    else:
        def draw(s):
            return take(workload, s, 300)
    first = draw(seed)
    return first == draw(seed) and first != draw(seed + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        refs, plans = load_refs(args.workload)
        deterministic = check_determinism(args.workload, args.seed, plans)
        if args.trace:
            setup_probe()  # compiles bytecode before the first traced request
            if args.workload == "survey":
                result, totals, overhead = survey_traced(args.seed, refs, plans)
            else:
                result, totals, overhead = cli_traced(args.workload, args.seed, args.seconds, refs)
            metrics = totals.metrics(overhead)
            totals.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            note = f"traced the first {len(result.verdicts)} requests; spans in {OUT_DIR}/"
        else:
            setup_probe()  # compiles bytecode; not counted
            if args.workload == "survey":
                result = survey_timed(args.seed, args.seconds, refs, plans)
            else:
                result = cli_timed(args.workload, args.seed, args.seconds, refs)
            metrics, note = end_to_end(result)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result.checks_ok = deterministic
    print(f"{args.workload} seed {args.seed}: {result.summary()}; {note}")
    if not deterministic:
        print("self-check failed: request draws are not determined by the seed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": len(result.verdicts),
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
