"""Independent oracles used by the test suite.

Each oracle recomputes a quantity by a different route from the library
(exhaustive enumeration, generating-function recurrences, brute-force
invariant checks), so that library and oracle can only agree by being
right.
"""

from __future__ import annotations

from functools import reduce
from itertools import count
from itertools import product as cartesian
from math import gcd

from chowbg._intmath import prime_power_decompose
from chowbg.graded import from_table, tensor, to_table
from chowbg.groups import CyclicZ, FiniteAbelian, Product
from chowbg.tables import EXACT, EXTRAPOLATED_FIELD, UPPER_BOUND, _tensor_counts, tensor_tables


def monomial_table(generators, relations, bound):
    """Brute-force monomial enumeration of a coefficient-relation presentation.

    generators: list of (name, degree); relations: {name: coefficient}.
    Returns {degree: (free_rank, sorted list of torsion orders)}.
    """
    ranges = [range(bound // d + 1) for _, d in generators]
    out = {d: [0, []] for d in range(bound + 1)}
    for exponents in cartesian(*ranges):
        degree = sum(e * d for e, (_, d) in zip(exponents, generators))
        if degree > bound:
            continue
        coeffs = [
            relations[name]
            for e, (name, _) in zip(exponents, generators)
            if e > 0 and name in relations
        ]
        if not coeffs:
            out[degree][0] += 1
        else:
            order = 0
            for c in coeffs:
                order = gcd(order, c)
            if order != 1:
                out[degree][1].append(order)
    return {d: (rank, sorted(tors)) for d, (rank, tors) in out.items()}


def poincare_coefficients(degrees, bound):
    """Coefficients of prod_d 1/(1 - t**d) through t**bound."""
    coeffs = [1] + [0] * bound
    for d in degrees:
        for i in range(d, bound + 1):
            coeffs[i] += coeffs[i - d]
    return coeffs


def scalar_invariant_degrees(p, bound):
    """Degrees i <= bound on which every unit scalar acts trivially: the
    monomial x**i is fixed by x -> c*x for all c in (Z/p)^* iff c**i = 1."""
    return [
        i for i in range(bound + 1) if all(pow(c, i, p) == 1 for c in range(1, p))
    ]


def symmetric_rows(primes, bound):
    """(free rank, torsion) per degree of a symmetric-group table whose
    p-local part is one Z/p in each positive scalar-invariant degree, summed
    over the given primes (in increasing order)."""
    invariant = {p: set(scalar_invariant_degrees(p, bound)) for p in primes}
    return [
        (1, ()) if d == 0 else (0, tuple(p for p in primes if d in invariant[p]))
        for d in range(bound + 1)
    ]


def cyclotomic_order_by_search(l, a, p):
    """Smallest t >= 1 with p | q**t - 1, where q = l**r is the size of
    F_l(mu_a): r is the smallest exponent with a | l**r - 1."""
    r = next(r for r in count(1) if (l**r - 1) % a == 0)
    return next(t for t in count(1) if (l ** (r * t) - 1) % p == 0)


def galois_exponent_by_search(p, i, max_r=64):
    """Exponent c with fixed subgroup ker(p**c), by exhaustive search for a
    factorization i = a * p**r * (p - 1) with a prime to p; None if impossible."""
    for r in range(max_r):
        block = p**r * (p - 1)
        if i % block == 0 and (i // block) % p != 0:
            return r + 1
    return None


def rotation_orbits(n, p):
    """All rotation orbits of p-tuples over {0..n-1}, as frozensets."""
    orbits = set()
    for t in cartesian(range(n), repeat=p):
        orbits.add(frozenset(t[k:] + t[:k] for k in range(p)))
    return orbits


def repeated_power_counts(factor, p, bound):
    """The p-fold Kunneth power of ``factor``, (degree, {order: multiplicity})
    pairs in increasing degree, through ``bound``: p products with
    ``tables._tensor_counts`` starting from the point, one factor at a time
    (the route ``cyclic_power_table`` took before squaring)."""
    out = [{0: 1}] + [{} for _ in range(bound)]
    for _ in range(p):
        out = _tensor_counts(out, factor, bound)
    return out


def cyclic_square_of_plane():
    """Chow groups of the square-of-a-plane cyclic quotient, by excision.

    The quotient splits as (plane) x (plane / sign).  The sign quotient of
    a plane is a quadric cone, stratified by a line (the image of one axis)
    and a complementary stratum isomorphic to line x (line - point): the
    open stratum gives an infinite cyclic class in dimension 2 and the
    closed one a dimension-1 class killed by 2, the attaching multiplicity
    of the doubled axis.  Multiplying by the plane shifts everything up by
    two dimensions.

    Returns {dimension: list of orders} for the product, ambient 4.
    """
    cone = {2: [0], 1: [2], 0: []}
    return {dim + 2: orders for dim, orders in cone.items()}


def kunneth_factors(g):
    """Factors whose tables the Kunneth rule multiplies: the terms of a
    product, with finite abelian groups split into their cyclic factors."""
    match g:
        case Product(left, right):
            return kunneth_factors(left) + kunneth_factors(right)
        case FiniteAbelian(factors):
            return [CyclicZ(m) for m in factors]
    return [g]


def pairwise_kunneth_table(factor_tables):
    """Kunneth product of integral tables folded pairwise with
    ``tensor_tables``, with their provenance merged: upper-bound if any
    factor is one, else exact, plus extrapolated-field if any factor is."""
    flags = [flag for table in factor_tables for flag in table.provenance]
    provenance = (UPPER_BOUND if UPPER_BOUND in flags else EXACT,)
    if EXTRAPOLATED_FIELD in flags:
        provenance += (EXTRAPOLATED_FIELD,)
    return reduce(tensor_tables, factor_tables).with_metadata(provenance=provenance)


def labelled_kunneth_table(factor_tables):
    """Kunneth product of integral tables through the labelled reference
    API: graded.tensor folded over from_table of each table, then to_table."""
    group = from_table(factor_tables[0])
    for table in factor_tables[1:]:
        group = tensor(group, from_table(table))
    return to_table(group)


def run_length_row_value(row):
    """Text of a row by run-length counting its expanded torsion tuple, one
    summand at a time: the rendering from before rows held counts."""
    parts = []
    if row.free_rank == 1:
        parts.append("Z")
    elif row.free_rank > 1:
        parts.append(f"Z^{row.free_rank}")
    seen = []  # (order, multiplicity), canonical order
    for order in row.torsion:
        if seen and seen[-1][0] == order:
            seen[-1] = (order, seen[-1][1] + 1)
        else:
            seen.append((order, 1))
    for order, mult in seen:
        parts.append(f"Z/{order}" if mult == 1 else f"(Z/{order})^{mult}")
    return " ⊕ ".join(parts) if parts else "0"


def run_length_torsion_json(torsion):
    """JSON torsion list of an expanded torsion tuple, run-length counted one
    summand at a time: the encoding from before rows held counts."""
    grouped = []
    for order in torsion:
        p, e = prime_power_decompose(order)
        if grouped and grouped[-1]["prime"] == p and grouped[-1]["exponent"] == e:
            grouped[-1]["multiplicity"] += 1
        else:
            grouped.append({"prime": p, "exponent": e, "multiplicity": 1})
    return grouped
