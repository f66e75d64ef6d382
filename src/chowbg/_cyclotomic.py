"""The cyclotomic rule and its arithmetic, compiled on first use.

Over a field that contains the roots of unity a table needs, C and Qbar
among them, ``fields.contains_mu`` answers without any of this.  This module
decides every finite abelian term over a field k without mu_e, e its
exponent (``abelian_generators``): only a single Z/p is established there,
as the ring ``Z[x^t]/(p x^t)`` of invariants, t the order of the image of
the mod-p cyclotomic character.  ``require_alone`` refuses a product or a
wreath product in which such a Z/p meets other p-torsion.  ``models`` calls
both, and ``contains_mu`` over a finite field runs ``extension_degree``.
``apply_cyclotomic_invariants``, the row-level reference for the ``(t, p)``
generator, is here too.  ``fields`` keeps each public name as a delegate to
the function of the same name here.
"""

from __future__ import annotations

from math import gcd, lcm

from ._intmath import factorint, is_prime, require_prime
from .errors import UnsupportedError, echo, echo_int
from .fields import FIELD_RULE_ESTABLISHED, FIELD_RULE_EXTRAPOLATED, FieldDescriptor, contains_mu
from .groups import CyclicZ, GroupExpr, Product, Symmetric, Wreath, format_group
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


def abelian_generators(factors: tuple[int, ...], k: FieldDescriptor) -> tuple[list, bool]:
    """The Kunneth generators of the finite abelian group with invariant factors
    ``factors`` over k, tame for its exponent e = factors[0] and without mu_e, and
    whether the field rule is extrapolated: ``[(t, p)]`` for a single Z/p; any other
    group is refused."""
    e = factors[0]
    if len(factors) == 1 and is_prime(e):
        extrapolated = invariance_rule_status(k, e) == FIELD_RULE_EXTRAPOLATED
        return [(cyclotomic_order(k, e), e)], extrapolated
    raise UnsupportedError(
        f"{k.name or 'the base field'} lacks the roots of unity needed for "
        f"{' x '.join(f'Z/{echo_int(m)}' for m in factors)}; only a single Z/p is established "
        "over such fields"
    )


def require_alone(g: GroupExpr, k: FieldDescriptor) -> None:
    """Refuse g over k when a Z/p of g takes the ``(t, p)`` route (p odd, tame, mu_p
    not in k) and g holds another source of p-torsion: a second such Z/p or an S_3
    for p = 3, each counted as often as the wreath products above it copy it.

    No other source can stay in an answered request: any other abelian term with
    p | e needs mu_e, which contains mu_p; S_n with n >= 4 is refused; wr(q, -) adds
    q-torsion with mu_q in k; a classical group adds 2-torsion.  A wr(q, -) with mu_q
    not in k is not entered: its own guard refuses it.  Walks on an explicit stack."""
    sources: dict[int, int] = {}  # p -> p-torsion sources, copies counted
    routed = set()  # the p of each (t, p) term
    stack = [(g, 1)]
    while stack:
        t, copies = stack.pop()
        if type(t) is Product:
            stack += ((t.right, copies), (t.left, copies))
        elif type(t) is Wreath:
            if contains_mu(k, t.p):
                stack.append((t.inner, copies * t.p))
        elif type(t) is CyclicZ:
            p = t.n
            if p > 2 and p != k.characteristic and not contains_mu(k, p) and is_prime(p):
                routed.add(p)
                sources[p] = sources.get(p, 0) + copies
        elif type(t) is Symmetric and t.n == 3:
            sources[3] = sources.get(3, 0) + copies
    for p in sorted(routed):
        if sources[p] > 1:
            raise UnsupportedError(
                f"{k.name or 'the base field'} lacks the roots of unity of order {echo_int(p)}, and "
                f"Z/{echo_int(p)} meets other {echo_int(p)}-torsion in {echo(format_group(g))}; only "
                "a single Z/p is established over such fields"
            )


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
