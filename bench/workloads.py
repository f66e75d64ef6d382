"""Request catalogs and seeded request streams for the three workloads.

Every workload draws its requests from a finite catalog, so the expected
answer of every request any seed can produce is recorded once, in
``refs.json`` (see ``record.py``).  A seed only chooses which catalog
entries are sent and in what order; chowbg sees nothing but the resulting
argv (CLI workloads) or library call (survey).

CLI requests are tuples of argv strings.  Survey requests are tuples
``(kind, ...)`` with kind one of ``sylow``, ``model``, ``local``, ``modp``.
"""

from __future__ import annotations

import json
import random
from itertools import product

WORKLOADS = ("cli-small", "cli-large", "survey")

# Catalog sampling uses this fixed seed, so the catalog itself never changes;
# the run seed only draws from it.
_CATALOG_SEED = 20260101


def request_key(request: tuple) -> str:
    return json.dumps(list(request), separators=(",", ":"))


# ---------------------------------------------------------------------------
# cli-small: many short CLI calls over all six verbs

_SMALL_GROUPS = [
    "1", "Z/2", "Z/3", "Z/4", "Z/5", "Z/6", "Z/7", "Z/12", "Z/2 x Z/2",
    "Z/4 x Z/2", "Z/3 x Z/3", "Gm", "GL(1)", "GL(2)", "GL(3)", "O(1)", "O(2)",
    "O(3)", "O(4)", "SO(3)", "SO(5)", "Sp(2)", "Sp(4)", "S_1", "S_2", "S_3",
    "S_4", "S_5", "wr(2, Z/2)", "wr(3, Z/3)", "wr(2, Gm)", "Gm x Z/2",
    "GL(2) x Z/3", "O(2) x Sp(2)", "wr(2, Z/2) x Z/3", "SO(4)", "G2",
]
_SMALL_FIELDS = ["C", "Qbar", "Q", "Q(mu_3)", "Q(mu_5)", "F_5", "F_7", "F_2", "F_3(mu_5)"]
_SMALL_LOCS = [(), ("--prime", "2"), ("--prime", "3"), ("--prime", "5"), ("--mod", "2"), ("--mod", "3")]
_FORMATS = ("table", "json")

_PRESENTATION_GROUPS = ["Gm", "GL(1)", "GL(4)", "O(5)", "SO(7)", "Sp(6)", "G2", "SO(4)", "Z/2", "S_3"]
_BOUND_GROUPS = _SMALL_GROUPS + ["Sp(8) x SO(7)", "wr(2, wr(2, Z/2))", "GL(6)"]
_GALOIS_PRIMES = [2, 3, 5, 7, 11, 13, 101, 997, 7919]

# Typed errors a user can provoke: exit 2 (parse / usage) and exit 3 (unsupported).
_ERROR_REQUESTS = [
    ("describe", ""), ("describe", "Z/"), ("describe", "Z/0"), ("describe", "GL(0)"),
    ("describe", "Sp(3)"), ("describe", "wr(4, Z/2)"), ("describe", "foo"),
    ("describe", "O(3"), ("describe", "Z/2 x"), ("describe", "Z/2 )"),
    ("series", "S_0"), ("bound", "SO(0)"), ("presentation", "GL(2"),
    ("describe", "Z/2", "--field", "F_4"), ("describe", "Z/3", "--field", "Q(mu_0)"),
    ("series", "GL(2)", "--field", "R"), ("describe", "Z/2", "--field", "F_2(mu_4)"),
    ("describe", "Z/3", "--field", "C(mu_3)"),
    ("describe", "Z/2", "--prime", "4"), ("describe", "Z/2", "--max-degree", "-1"),
    ("describe", "Z/2", "--format", "xml"), ("describe", "Z/2", "--prime", "2", "--mod", "3"),
    ("galois-exponent", "--prime", "6", "--degree", "2"), ("sylow", "0", "--prime", "2"),
    ("describe", "S_5", "--mod", "2"), ("describe", "G2"), ("series", "G2", "--max-degree", "4"),
    ("describe", "SO(4)"), ("describe", "S_4"), ("describe", "O(3)", "--field", "F_2"),
    ("describe", "wr(3, Z/3)", "--field", "Q"), ("describe", "Z/6", "--field", "Q"),
    ("sylow", "6", "--prime", "3", "--field", "F_3"), ("presentation", "SO(6)"),
]

# Inputs that are slow or crash today.  Nesting depth past the interpreter's
# recursion limit raises RecursionError in the parser; 15-digit primes and
# Z/n with n a product of two primes near 5*10^7 make _intmath's trial
# division take 3-5 s, more than twice the per-request time limit, so the
# verdict does not depend on how fast the machine happens to be.
_NEST_PARENS = "(" * 500 + "{}" + ")" * 500
_NEST_WREATH = "wr(2, " * 400 + "Z/2" + ")" * 400
_NEST_REQUESTS = [
    ("describe", _NEST_PARENS.format("Z/2"), "--max-degree", "3"),
    ("describe", _NEST_PARENS.format("GL(2)"), "--max-degree", "4", "--format", "json"),
    ("bound", _NEST_PARENS.format("O(3) x Z/2")),
    ("presentation", _NEST_PARENS.format("SO(5)")),
    ("describe", _NEST_WREATH, "--max-degree", "0"),
    ("series", _NEST_WREATH, "--max-degree", "0", "--format", "json"),
]
_SLOW_PRIMES = ["999999999999989", "999999999999947", "999999999999883"]
_SEMIPRIMES = ["2500001900000357", "2500005300002773"]  # 50000017*50000021, 50000047*50000059
_INTMATH_REQUESTS = [
    ("galois-exponent", "--prime", _SLOW_PRIMES[0], "--degree", "4"),
    ("galois-exponent", "--prime", _SLOW_PRIMES[1], "--degree", "999999999999946"),
    ("galois-exponent", "--prime", _SLOW_PRIMES[2], "--degree", "3", "--format", "json"),
    ("describe", "Z/" + _SEMIPRIMES[0], "--max-degree", "2"),
    ("series", "Z/" + _SEMIPRIMES[1], "--max-degree", "3", "--format", "json"),
    ("describe", "Z/" + _SEMIPRIMES[1], "--prime", "50000047", "--max-degree", "1"),
]


def _small_normal() -> list[tuple]:
    rng = random.Random(_CATALOG_SEED)
    table_combos = list(
        product(("describe", "series"), _SMALL_GROUPS, _SMALL_FIELDS, _SMALL_LOCS, _FORMATS, range(2, 9))
    )
    out = []
    for verb, group, field, loc, fmt, degree in rng.sample(table_combos, 700):
        argv = (verb, group, "--max-degree", str(degree))
        if field != "C":
            argv += ("--field", field)
        argv += loc
        if fmt != "table":
            argv += ("--format", fmt)
        out.append(argv)
    for group, fmt in product(_PRESENTATION_GROUPS, _FORMATS):
        out.append(("presentation", group, "--format", fmt))
    for group, fmt in product(_BOUND_GROUPS, _FORMATS):
        out.append(("bound", group, "--format", fmt))
    galois = list(product(_GALOIS_PRIMES, range(1, 41), _FORMATS))
    for p, i, fmt in rng.sample(galois, 80):
        out.append(("galois-exponent", "--prime", str(p), "--degree", str(i), "--format", fmt))
    sylow = list(product(range(1, 13), (2, 3, 5, 7), range(2, 7), _FORMATS))
    for n, p, degree, fmt in rng.sample(sylow, 120):
        out.append(("sylow", str(n), "--prime", str(p), "--max-degree", str(degree), "--format", fmt))
    return out


# ---------------------------------------------------------------------------
# cli-large: table-building CLI calls on classical groups at high degree

# (argv prefix, degrees, formats): each variant costs roughly 0.2-0.4 s of
# compute on the seed commit.
_LARGE_TEMPLATES = [
    (("describe", "O(8)"), (32, 33), _FORMATS),
    (("describe", "O(6)", "--mod", "2"), (37, 38), _FORMATS),
    (("describe", "Sp(8) x SO(7)"), (27, 28), _FORMATS),
    (("describe", "GL(6)"), (41, 42), _FORMATS),
    (("describe", "SO(7)", "--prime", "2"), (51, 52), _FORMATS),
    (("describe", "GL(3) x O(4)"), (18, 19), _FORMATS),
    (("series", "O(7)"), (34, 35), _FORMATS),
    (("describe", "O(5) x Sp(4)"), (25, 26), _FORMATS),
]


def _large_request(prefix: tuple, degree: int, fmt: str) -> tuple:
    argv = prefix + ("--max-degree", str(degree))
    return argv + ("--format", fmt) if fmt != "table" else argv


# ---------------------------------------------------------------------------
# survey: sessions of library calls, one process each

# (group, primes of its local and mod-p views, degrees): the degree ranges
# keep every cold chow_model call between about 5 and 500 ms on the seed
# commit.
_SURVEY_GROUPS = [
    ("wr(2, Z/2 x Z/2)", (2,), range(8, 25)),
    ("wr(2, wr(2, Z/2))", (2,), range(8, 27)),
    ("wr(2, wr(2, Z/4))", (2,), range(8, 25)),
    ("wr(2, GL(2))", (2,), range(12, 31)),
    ("wr(2, GL(3))", (2,), range(10, 23)),
    ("wr(2, O(2))", (2,), range(12, 31)),
    ("wr(3, Z/3)", (3,), range(14, 31)),
    ("wr(3, Z/9)", (3,), range(14, 31)),
    ("wr(3, Gm)", (3,), range(16, 31)),
    ("wr(3, wr(3, Z/3))", (3,), range(6, 12)),
    ("wr(3, Z/3 x Z/3)", (3,), range(6, 14)),
    ("wr(5, Z/5)", (5,), range(8, 19)),
    ("wr(7, Z/7)", (7,), range(6, 13)),
    ("wr(2, wr(3, Z/3))", (2, 3), range(8, 19)),
    ("wr(2, wr(2, Z/2)) x Z/3", (2, 3), range(8, 23)),
    ("wr(2, Z/2) x wr(3, Z/3)", (2, 3), range(10, 31)),
    ("wr(3, Z/3) x GL(2)", (3,), range(8, 23)),
    ("wr(2, Z/4) x O(3)", (2,), range(8, 22)),
    ("Z/2 x wr(2, wr(2, Z/2))", (2,), range(8, 17)),
    ("wr(5, Z/5) x Z/5", (5,), range(8, 16)),
]
_SYLOW_N = {2: range(2, 16), 3: range(3, 27), 5: range(5, 30)}
# A survey session is one process, with a cold memo, working through one
# plan.  A plan is a set of units: one Sylow bound, or one chow_model call
# with the local and mod-p views of the same group and degree.  record.py
# deals the units into plans of nearly equal size and cold cost and stores
# them in refs.json; run.py passes each session's plan to its child.  A run
# makes whole passes over the plans, each pass in seeded order.  A plan's
# calls come in one fixed order, so which call finds its sub-computations in
# the memo, and so what each call costs, does not depend on the seed.


def survey_units() -> list[list[tuple]]:
    units: dict[tuple, list[tuple]] = {}
    for request in _survey_catalog():
        key = request if request[0] == "sylow" else request[1:3]
        units.setdefault(key, []).append(request)
    return list(units.values())


def _survey_catalog() -> list[tuple]:
    out: list[tuple] = []
    for p, ns in _SYLOW_N.items():
        for n, degree in product(ns, range(4, 10)):
            out.append(("sylow", n, p, degree))
    for group, primes, degrees in _SURVEY_GROUPS:
        for degree in degrees:
            out.append(("model", group, degree))
            for p in primes:
                out.append(("local", group, degree, p))
                out.append(("modp", group, degree, p))
    for p in (2, 3, 5):  # the p-local table of S_n is established for n < 2p
        for n, degree in product(range(2, 2 * p), range(4, 13, 2)):
            out.append(("local", f"S_{n}", degree, p))
    return out


# ---------------------------------------------------------------------------
# catalogs and streams

def catalog(workload: str) -> list[tuple[str, tuple]]:
    """Every request the workload can send, as (slice, request) pairs."""
    if workload == "cli-small":
        return (
            [("normal", r) for r in _small_normal()]
            + [("error", r) for r in _ERROR_REQUESTS]
            + [("nest", r) for r in _NEST_REQUESTS]
            + [("intmath", r) for r in _INTMATH_REQUESTS]
        )
    if workload == "cli-large":
        return [
            ("normal", _large_request(prefix, d, fmt))
            for prefix, degrees, formats in _LARGE_TEMPLATES
            for d in degrees
            for fmt in formats
        ]
    if workload == "survey":
        return [("normal", r) for r in _survey_catalog()]
    raise ValueError(f"unknown workload {workload!r}")


# cli-small is sent in blocks of SMALL_BLOCK requests: 44 normal, 5
# typed-error and one adversarial request (nesting and _intmath in alternate
# blocks).  The adversarial share (2%) is a fifth of the 10% beyond the tail
# percentile of a 30 s run (p90 of 150), so the tail never flips between slow
# and normal requests.
_SMALL_BLOCK = {"normal": 44, "error": 5}
SMALL_BLOCK = sum(_SMALL_BLOCK.values()) + 1
LARGE_CYCLE = 4 * len(_LARGE_TEMPLATES)


def stream(workload: str, seed: int):
    """Endless seeded sequence of requests for a CLI workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-small":
        by_slice: dict[str, list[tuple]] = {}
        for slice_name, request in catalog(workload):
            by_slice.setdefault(slice_name, []).append(request)
        block = 0
        while True:
            picks = [rng.choice(by_slice[s]) for s, k in _SMALL_BLOCK.items() for _ in range(k)]
            picks.append(rng.choice(by_slice["nest" if block % 2 == 0 else "intmath"]))
            rng.shuffle(picks)
            yield from picks
            block += 1
    elif workload == "cli-large":
        # Each block sends every template once; each template cycles through
        # its four (degree, format) variants in seeded order, so every four
        # blocks (LARGE_CYCLE requests) hold the same requests whatever the
        # seed.
        variants: dict[tuple, list] = {}
        while True:
            order = list(_LARGE_TEMPLATES)
            rng.shuffle(order)
            for prefix, degrees, formats in order:
                if not variants.get(prefix):
                    variants[prefix] = list(product(degrees, formats))
                    rng.shuffle(variants[prefix])
                yield _large_request(prefix, *variants[prefix].pop())
    else:
        raise ValueError(f"no request stream for workload {workload!r}")


def survey_plan_order(seed: int, plans: int, sessions: int) -> list[int]:
    """Which plan each of a run's sessions makes: whole passes over the
    plans, each pass in seeded order."""
    rng = random.Random(f"survey:{seed}")
    order: list[int] = []
    while len(order) < sessions:
        one_pass = list(range(plans))
        rng.shuffle(one_pass)
        order += one_pass
    return order[:sessions]


def survey_session(plan: list[int]) -> list[tuple]:
    """The calls of a session on ``plan`` (indices into survey_units()): its
    units in an order shuffled once with the catalog seed, each unit's calls
    in catalog order (the table before its views, as a survey script makes
    them)."""
    rng = random.Random(f"survey:{_CATALOG_SEED}:{','.join(map(str, plan))}")
    all_units = survey_units()
    units = [all_units[i] for i in plan]
    rng.shuffle(units)
    return [request for unit in units for request in unit]


def take(workload: str, seed: int, n: int) -> list[tuple]:
    it = stream(workload, seed)
    return [next(it) for _ in range(n)]
