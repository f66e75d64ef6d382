"""Cyclotomic arithmetic for ``fields``, compiled on first use.

Over a field that contains the roots of unity a table needs, C and Qbar
among them, ``fields.contains_mu`` answers without any of this; it runs for
a ``Z/p`` over a field without mu_p and for ``contains_mu`` over a finite
field.  ``apply_cyclotomic_invariants``, the row-level reference for the
``(t, p)`` generator, is here too.  ``fields`` keeps each public name as a
delegate to the function of the same name here.
"""

from __future__ import annotations

from math import gcd, lcm

from ._intmath import factorint, is_prime, require_prime
from .fields import FIELD_RULE_ESTABLISHED, FIELD_RULE_EXTRAPOLATED, FieldDescriptor, contains_mu
from .groups import CyclicZ
from .tables import ChowTable, DegreeRow


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/m)^*, a coprime to m >= 2: start from phi(m) and divide
    out each prime factor q while a**(order / q) is still 1."""
    if m < 2 or gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit modulo {m}")
    order = 1
    for q, e in factorint(m):
        order *= q ** (e - 1) * (q - 1)
    for q, _ in factorint(order):
        while order % q == 0 and pow(a, order // q, m) == 1:
            order //= q
    return order


def extension_degree(k: FieldDescriptor) -> int:
    """r with F_l(mu_a, ...) the field with l**r elements: the lcm of the orders of l mod a."""
    return lcm(*(multiplicative_order(k.characteristic % a, a) for a in k.adjoined if a > 1))


def cyclotomic_order(k: FieldDescriptor, p: int) -> int:
    """Order of the image of the mod-p cyclotomic character; divides p - 1.
    Over the field with q elements it is the order of q mod p."""
    require_prime(p)
    if k.characteristic == p:
        raise ValueError(f"characteristic {p} field has no tame mu_{p}")
    if contains_mu(k, p):
        return 1
    if k.characteristic == 0:
        return p - 1
    return multiplicative_order(pow(k.characteristic, extension_degree(k), p), p)


def invariance_rule_status(k: FieldDescriptor, p: int) -> str:
    """Whether the degree-filtering rule for B(Z/p) over k is an established
    computation (closed fields, finite fields, Q and its mu_p extensions, Q(mu_1)
    and Q(mu_2) being Q) or an extrapolation to a descriptor outside that list."""
    if k.characteristic or all(m <= 2 for m in k.adjoined) or any(m % p == 0 for m in k.adjoined):
        return FIELD_RULE_ESTABLISHED
    return FIELD_RULE_EXTRAPOLATED


def apply_cyclotomic_invariants(table: ChowTable, t: int) -> ChowTable:
    """Keep the degree-i rows of a B(Z/p) table with t | i; zero the others.

    t is the order of the scalar group acting on the degree-1 generator, so
    a degree-i monomial is fixed iff t divides i; degree 0 always survives.
    """
    if not isinstance(table.group, CyclicZ) or not is_prime(table.group.n):
        raise ValueError("expected a table for a cyclic group of prime order")
    p = table.group.n
    if t < 1 or (p - 1) % t != 0:
        raise ValueError(f"t must divide p - 1 = {p - 1}, got {t}")
    rows = [row if row.degree % t == 0 else DegreeRow(row.degree, 0, ()) for row in table.rows]
    metadata = (table.group, table.field, table.localization, table.provenance)
    return ChowTable.from_rows(rows, table.bound, *metadata)
