"""Record the expected outcome of every catalog request into bench/refs.json.

Usage (from the repository root, on the commit whose outputs are the
reference): PYTHONPATH=src python bench/record.py

Each CLI request is run in-process through ``chowbg.cli.run`` with a raised
recursion limit, so the deep-nesting requests record the answer a correct
parser gives.  Before anything is written, outputs are checked:

* every JSON table round-trips through ``chowbg.cli.table_from_json_obj``,
  and every text table re-renders byte for byte from that JSON;
* the free ranks of presentation-backed groups (products of Gm, GL, O,
  SO, Sp) match ``tests/oracles.poincare_coefficients``, and, where the
  degree bound is small, the whole table matches ``monomial_table``.

Survey requests record a digest of the returned table, and the survey
units are dealt into session plans by their cold compute time here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))

import oracles  # noqa: E402
from chowbg import cli, models  # noqa: E402
from chowbg.groups import GL, SO, O, Gm, Product, Sp, format_group, parse_group_expr  # noqa: E402
from chowbg.presentations import catalog_presentation  # noqa: E402

from answer import answer_stats, digest, err_class, table_digest  # noqa: E402
from survey import bind_call  # noqa: E402
from workloads import WORKLOADS, catalog, request_key, survey_units  # noqa: E402

# Largest number of monomials the brute-force oracle is asked to enumerate.
MONOMIAL_LIMIT = 200_000
# Cold compute time of one survey plan; about ten sessions fit in a 30 s run.
PLAN_SECONDS = 2.5


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _json_twin(argv) -> tuple:
    """The describe/sylow request in JSON format whose table argv answers with."""
    argv = list(argv)
    if argv[0] == "series":
        argv[0] = "describe"
    if "--format" in argv:
        i = argv.index("--format")
        del argv[i : i + 2]
    return tuple(argv) + ("--format", "json")


def _classical_factors(g):
    if isinstance(g, Product):
        left, right = _classical_factors(g.left), _classical_factors(g.right)
        return None if left is None or right is None else left + right
    if isinstance(g, (Gm, GL, O, Sp)) or (isinstance(g, SO) and g.n % 2 == 1):
        return [g]
    return None


def _check_oracle(argv, table) -> None:
    """Compare a table of a product of classical groups with the oracles."""
    try:
        factors = _classical_factors(parse_group_expr(argv[1]))
    except Exception:
        return
    if not factors:
        return
    generators, relations = [], {}
    for i, factor in enumerate(factors):
        pres = catalog_presentation(factor)
        generators += [(f"{name}.{i}", d) for name, d in pres.generators]
        relations.update({f"{name}.{i}": m for m, name in pres.torsion_relations})
    bound = table.bound
    free_degrees = [d for name, d in generators if name not in relations]
    free = oracles.poincare_coefficients(free_degrees, bound)
    prime = _option(argv, "--prime") or _option(argv, "--mod")
    if "--mod" not in argv and [r.free_rank for r in table.rows] != free:
        raise AssertionError(f"free ranks differ from poincare_coefficients: {argv}")
    count = 1
    for _, d in generators:
        count *= bound // d + 1
    if count > MONOMIAL_LIMIT:
        return
    brute = oracles.monomial_table(generators, relations, bound)
    for row in table.rows:
        rank, torsion = brute[row.degree]
        if prime is not None:
            torsion = [t for t in torsion if t % int(prime) == 0]
        if "--mod" in argv:
            expected = (rank + len(torsion), [])
        else:
            expected = (rank, sorted(torsion))
        if (row.free_rank, sorted(row.torsion)) != expected:
            raise AssertionError(f"degree {row.degree} differs from monomial_table: {argv}")


def record_cli(argv, typed_error_ok: bool) -> dict:
    code, out, err = _run(argv)
    ref = {"exit": code, "out": digest(out.encode()), "err": err_class(err), "summands": 0, "classes": 0}
    if typed_error_ok:
        ref["typed_error_ok"] = True
    if code == 0 and argv[0] in ("describe", "series", "sylow"):
        twin_code, twin_out, _ = _run(_json_twin(argv))
        if twin_code != 0:
            raise AssertionError(f"JSON twin failed: {argv}")
        obj = json.loads(twin_out)
        table = cli.table_from_json_obj(obj)
        if cli.table_to_json_obj(table) != obj:
            raise AssertionError(f"JSON does not round-trip: {argv}")
        if argv[0] == "describe" and "--format" not in argv:
            text = io.StringIO()
            cli.render_table(table, text)
            if text.getvalue() != out:
                raise AssertionError(f"text output differs from its JSON table: {argv}")
        if argv[0] == "series" and "--format" not in argv:
            values = " ".join(str(r.free_rank) for r in table.rows)
            if f"series: {values}\n" not in out:
                raise AssertionError(f"series differs from its table: {argv}")
        if argv[0] != "sylow":
            _check_oracle(argv, table)
        ref["summands"], ref["classes"] = answer_stats(table)
    return ref


def record_survey(request) -> dict:
    table = bind_call(request)()
    summands, classes = answer_stats(table)
    return {"digest": table_digest(table, format_group(table.group)), "summands": summands, "classes": classes}


def survey_plans() -> list[list[int]]:
    """Deal the survey units into plans of nearly equal size and cold cost:
    costliest first, to plans 0..n-1, then n-1..0, and so on."""
    costs = []
    for unit in survey_units():
        models.chow_model.cache_clear()
        start = time.perf_counter()
        for request in unit:
            bind_call(request)()
        costs.append(time.perf_counter() - start)
    count = max(1, round(sum(costs) / PLAN_SECONDS))
    plans: list[list[int]] = [[] for _ in range(count)]
    for rank, i in enumerate(sorted(range(len(costs)), key=lambda i: -costs[i])):
        lap, pos = divmod(rank, count)
        plans[pos if lap % 2 == 0 else count - 1 - pos].append(i)
    loads = [sum(costs[i] for i in plan) for plan in plans]
    print(f"survey: {count} plans of {min(loads):.2f}-{max(loads):.2f} s cold", flush=True)
    return [sorted(plan) for plan in plans]


def record_all() -> dict:
    refs = {}
    for workload in WORKLOADS:
        entries = {}
        for slice_name, request in catalog(workload):
            if workload == "survey":
                ref = record_survey(request)
            else:
                ref = record_cli(request, typed_error_ok=slice_name in ("nest", "intmath"))
            entries[request_key(request)] = ref
        refs[workload] = entries
        print(f"{workload}: {len(entries)} requests recorded", flush=True)
    refs["survey-plans"] = survey_plans()
    return refs


def main() -> None:
    sys.setrecursionlimit(100_000)
    threading.stack_size(512 * 1024 * 1024)
    models.chow_model.cache_clear()
    result = {}
    worker = threading.Thread(target=lambda: result.update(refs=record_all()))
    worker.start()
    worker.join()
    if "refs" not in result:
        sys.exit("recording failed")
    with open(os.path.join(HERE, "refs.json"), "w") as f:
        json.dump(result["refs"], f, indent=0, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
