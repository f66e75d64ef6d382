"""Calibration probe: a fixed Python job that uses no chowbg code.

Usage: python bench/calibrate.py

run.py starts this probe between requests and takes its wall time as the
speed of the machine at that moment; survey.py runs a smaller ``kernel``
in-process between calls for the same purpose.  The probe does the kinds of
work a chowbg request does: interpreter start, importing and executing stdlib
modules, and pure-Python integer, tuple and dict work.  Its work never
changes, so it shows how fast the machine is running, and nothing about
the program under test.
"""

import argparse  # noqa: F401
import dataclasses
import fractions  # noqa: F401
import json
import typing  # noqa: F401
from collections import Counter
from math import gcd


@dataclasses.dataclass(frozen=True)
class _Summand:
    degree: int
    order: int


def kernel(rounds: int = 25_000) -> int:
    counts: Counter = Counter()
    for i in range(1, rounds):
        counts[_Summand(i % 61, gcd(i, 720))] += 1
    rows = sorted(counts.items(), key=lambda kv: (kv[0].degree, kv[0].order))
    merged: dict[tuple[int, int], int] = {}
    for summand, n in rows:
        m = summand.order
        p, e = 2, 0
        while p * p <= m:
            while m % p == 0:
                m //= p
                e += 1
            p += 1
        key = (summand.degree, e)
        merged[key] = merged.get(key, 0) + n
    return len(json.dumps(sorted(merged.items())))


if __name__ == "__main__":
    print(kernel())
