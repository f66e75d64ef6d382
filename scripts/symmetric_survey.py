#!/usr/bin/env python3
"""Survey the p-local tables of symmetric groups.

For each n and prime p <= n, print the Sylow subgroup, the exact p-local
table when the Sylow subgroup is cyclic, and the Sylow upper-bound table
otherwise.

Usage: python scripts/symmetric_survey.py [--max-n N] [--max-degree D]
"""

import argparse

from chowbg.cli import render_row_value
from chowbg.errors import UnsupportedError
from chowbg.fields import parse_field
from chowbg.groups import format_group, sylow_group
from chowbg.models import chow_symmetric_local, chow_symmetric_sylow_bound


def primes_up_to(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--max-degree", type=int, default=8)
    args = parser.parse_args()
    field = parse_field("C")
    for n in range(2, args.max_n + 1):
        for p in primes_up_to(n):
            header = f"S_{n} at p={p}  (Sylow = {format_group(sylow_group(n, p))})"
            try:
                table = chow_symmetric_local(n, p, field, args.max_degree)
                kind = "exact p-local table"
            except UnsupportedError:
                table = chow_symmetric_sylow_bound(n, p, args.max_degree)
                kind = "Sylow upper bound"
            row_text = "  ".join(
                f"{row.degree}:{render_row_value(row.free_rank, row.counts)}" for row in table.rows
            )
            print(f"{header}\n  [{kind}] {row_text}")
        print()


if __name__ == "__main__":
    main()
