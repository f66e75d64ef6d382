"""Independent oracles used by the test suite.

Each oracle recomputes a quantity by a different route from the library
(exhaustive enumeration, generating-function recurrences, brute-force
invariant checks), so that library and oracle can only agree by being
right.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from functools import reduce
from itertools import count
from itertools import product as cartesian
from math import factorial, gcd

from chowbg._intmath import (
    factorint,
    invariant_factors,
    is_prime,
    prime_power_decompose,
    require_prime,
)
from chowbg._record import Record
from chowbg.errors import UnsupportedError
from chowbg.fields import require_char_ne
from chowbg.graded import from_table, tensor, to_table
from chowbg.groups import (
    G2,
    GL,
    SO,
    CyclicZ,
    FiniteAbelian,
    Gm,
    GroupExpr,
    O,
    Product,
    Sp,
    Symmetric,
    Trivial,
    Wreath,
    _ATOMS,
    _INTEGER_TERMS,
    _Parser,
    abelian_expr,
    combine_product,
    format_group,
)
from chowbg.tables import (
    EXACT,
    EXTRAPOLATED_FIELD,
    UPPER_BOUND,
    ChowTable,
    DegreeRow,
    Localization,
    polynomial_table,
)


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


def trial_is_prime(n):
    """Primality by trial division up to the square root of n."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def trial_factorint(n):
    """Prime factorization of n >= 1 as sorted ((prime, exponent), ...), by
    trial division up to the square root of what is left."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


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
    ``_tensor_counts`` starting from the point, one factor at a time (the
    route ``cyclic_power_table`` took before squaring)."""
    out = [{0: 1}] + [{} for _ in range(bound)]
    for _ in range(p):
        out = _tensor_counts(out, factor, bound)
    return out


# ---------------------------------------------------------------------------
# the gcd kernels of ``chowbg.tables`` as they were before its series form:
# per-degree {order: multiplicity} dicts, order 0 standing for Z, multiplied
# by the gcd rule pair by pair.  They share no code with the series kernels
# and are the reference those are checked against.


def _row_counts(row: DegreeRow) -> dict[int, int]:
    """{order: multiplicity} of one row, with order 0 counting the free rank."""
    counts = dict(row.counts)
    if row.free_rank:
        counts[0] = row.free_rank
    return counts


def gcd_polynomial_table(factors, bound: int) -> ChowTable:
    """Integral table through ``bound`` of the tensor product of the factors,
    folded one at a time: a ``(degree, m)`` generator is the ring
    ``Z[x]/(m x)``, with m = 0 for ``Z[x]``, and a ``ChowTable`` of bound at
    least ``bound`` enters as its rows; no factors give the point.

    ``Z/a (x) Z/b = Z/gcd(a, b)`` with the convention gcd(0, x) = x; coprime
    pairs contribute nothing.  There is no Tor correction: this models the
    Chow Kunneth rule, which is an isomorphism for the spaces treated here.
    So a monomial in the generators is free if it avoids every generator
    with m >= 2, and otherwise cyclic of order the gcd of the coefficients
    it meets.
    """
    counts = [{0: 1} if d == 0 else {} for d in range(bound + 1)]
    for f in factors:
        if isinstance(f, ChowTable):
            factor = [(d, _row_counts(f.row(d))) for d in range(bound + 1)]
        else:
            degree, m = f
            x = {0: 1} if m == 0 else {p**e: 1 for p, e in factorint(m)}
            factor = [(0, {0: 1})] + [(d, x) for d in range(degree, bound + 1, degree)]
        counts = _tensor_counts(counts, factor, bound)
    return _table_from_counts(counts)


def _tensor_counts(left, right, bound: int) -> list[dict[int, int]]:
    """Kunneth product of {order: multiplicity} counts through ``bound``,
    order 0 standing for Z: ``left`` has one dict per degree, ``right`` is
    (degree, dict) pairs in increasing degree.  Coprime pairs are dropped."""
    out: list[dict[int, int]] = [{} for _ in range(bound + 1)]
    for i, x in enumerate(left):
        if not x:
            continue
        for j, y in right:
            if i + j > bound:
                break
            acc = out[i + j]
            for p, m in x.items():
                for q, n in y.items():
                    h = gcd(p, q)
                    if h != 1:
                        acc[h] = acc.get(h, 0) + m * n
    return out


def _square_counts(x: list[dict[int, int]], bound: int) -> list[dict[int, int]]:
    """``_tensor_counts`` of per-degree counts with themselves through
    ``bound``: each unordered pair of degrees i < j is visited once and
    counted twice, the product being commutative."""
    out: list[dict[int, int]] = [{} for _ in range(bound + 1)]
    for i in range(bound // 2 + 1):
        a = x[i]
        if not a:
            continue
        for j in range(i, bound - i + 1):
            b = x[j]
            if not b:
                continue
            w = 1 if i == j else 2
            acc = out[i + j]
            for p, m in a.items():
                for q, n in b.items():
                    h = gcd(p, q)
                    if h != 1:
                        acc[h] = acc.get(h, 0) + w * m * n
    return out


def _power_counts(factor, p: int, bound: int) -> list[dict[int, int]]:
    """The p-fold Kunneth power of ``factor``, (degree, counts) pairs in
    increasing degree, through ``bound``, by square-and-multiply over the
    bits of p (Knuth, TAOCP vol. 2, 4.6.3): about log2(p) squarings and
    one product with ``factor`` per further set bit, where the repeated
    product takes p.  It holds because the gcd rule is associative and
    commutative and a dropped gcd of 1 stays 1 in every later product."""
    out = [{} for _ in range(bound + 1)]
    for d, counts in factor:
        out[d] = counts
    for bit in bin(p)[3:]:  # p >= 2, so at least one squaring builds new dicts
        out = _square_counts(out, bound)
        if bit == "1":
            out = _tensor_counts(out, factor, bound)
    return out


def gcd_cyclic_power_table(table: ChowTable, p: int) -> ChowTable:
    """Cyclic power in codimension grading on per-row (order -> multiplicity)
    counts: the rows of the labelled reference
    ``to_table(cyclic.cyclic_power_codim(from_table(table), p))``.

    A class is a (degree e, order q) pair with multiplicity m, q = 0 free;
    S is the classes with p | q.  Ordered p-tuples of summands are counted
    by the p-fold Kunneth power over (degree sum, gcd), taken by squaring
    (``_power_counts``), and Burnside's lemma turns them into rotation
    orbits: (tuples + (p - 1) * constant tuples) / p, since each
    nontrivial rotation fixes just the constant tuples.  The constant tuple
    of a class in S is dropped, and gamma (``Z/(p q)`` in degree p e) and
    alpha (``Z/p`` in every degree above p e) take its place.  A gcd of
    prime powers is a prime power, 0 or 1, so no CRT split is needed.
    """
    require_prime(p)
    bound = table.bound
    factor = [(row.degree, _row_counts(row)) for row in table.rows]
    out = _power_counts(factor, p, bound)

    classes = [(e, q, m) for e, counts in factor for q, m in counts.items()]
    for e, q, m in classes:
        if p * e <= bound:  # (p - 1) m fixed points; p m fewer where S drops them
            out[p * e][q] += -m if q % p == 0 else (p - 1) * m
    for d, here in enumerate(out):
        for g, n in here.items():
            orbits, rest = divmod(n, p)
            if rest:
                raise ArithmeticError(
                    f"Burnside count {n} in degree {d} with gcd {g} is not a multiple of {p}"
                )
            here[g] = orbits
    for e, q, m in classes:
        if q % p == 0:
            if p * e <= bound:
                out[p * e][p * q] = out[p * e].get(p * q, 0) + m  # gamma
            for t in range(p * e + 1, bound + 1):
                out[t][p] = out[t].get(p, 0) + m  # alpha
    return _table_from_counts(out)


def _table_from_counts(out: list[dict[int, int]]) -> ChowTable:
    """Table whose degree-d row has the {order: multiplicity} counts ``out[d]``,
    order 0 being the free rank."""
    rows = []
    for d, counts in enumerate(out):
        free = counts.pop(0, 0)
        rows.append(DegreeRow.from_counts(d, free, counts))
    return ChowTable.from_rows(rows, len(out) - 1)


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


def integral_cohomology(g: GroupExpr, top: int) -> list[tuple[int, Counter]]:
    """H^n(BG; Z) for n = 0..top, additively, for a product of finite cyclic
    groups with GL, Gm and Sp factors: per degree the free rank and the
    {prime power: multiplicity} of the torsion.  It uses no table code.

    H^*(BZ/m) is Z in degree 0 and Z/m in each even positive degree.  GL(n),
    Gm = GL(1) and Sp(n) have torsion-free even cohomology, polynomial on the
    Chern classes c_i of degree 2i (i = 1..n, only even i for Sp).  A product
    follows Kunneth's theorem with its Tor term,
    H^n(X x Y) = (+)_{i+j=n} H^i (x) H^j  (+)  (+)_{i+j=n+1} Tor(H^i, H^j),
    where Z/a (x) Z/b = Tor(Z/a, Z/b) = Z/gcd(a, b).  Each step is exact one
    degree below its inputs, so every factor is taken to top + its count."""
    reach = top + len(kunneth_factors(g))
    point = [(1, [])] + [(0, [])] * reach
    spaces = []
    for t in kunneth_factors(g):
        if isinstance(t, CyclicZ):
            h = [(1, [])] + [(0, [] if d % 2 else [t.n]) for d in range(1, reach + 1)]
        elif isinstance(t, (Gm, GL, Sp)):
            n = 1 if isinstance(t, Gm) else t.n
            chern = range(2, n + 1, 2) if isinstance(t, Sp) else range(1, n + 1)
            ranks = poincare_coefficients(chern, reach // 2)
            h = [(0 if d % 2 else ranks[d // 2], []) for d in range(reach + 1)]
        elif isinstance(t, Trivial):
            h = point
        else:
            raise ValueError(f"no cohomology oracle for {format_group(t)}")
        spaces.append(h)
    h = reduce(lambda x, y: _kunneth_cohomology(x, y, reach), spaces, point)
    return [
        (rank, Counter(q**e for m in orders for q, e in trial_factorint(m)))
        for rank, orders in h[: top + 1]
    ]


def orthogonal_cohomology(g: GroupExpr, top: int) -> list[tuple[int, int]]:
    """(r_k, t_k) for k = 0..top: the free rank and the number of Z/2 summands of
    H^k(BG; Z), for G = O(n) or SO(m) with m odd, from three standard facts and
    no table code.  H^*(BO(n); F_2) = F_2[w_1, ..., w_n] and H^*(BSO(m); F_2) =
    F_2[w_2, ..., w_m], w_i of degree i; rationally both are polynomial on the
    Pontryagin classes p_i of degree 4i, i <= n // 2 (m // 2); and all torsion
    of H^*(BO(n); Z) and H^*(BSO(m); Z) has order 2 (E. H. Brown, "The
    cohomology of BSO_n and BO_n with integer coefficients", Proc. AMS 85, 1982).
    So by universal coefficients dim H^k(F_2) = r_k + t_k + t_{k+1}, which gives
    t_{k+1} = dim_k - r_k - t_k from t_0 = 0."""
    if isinstance(g, O):
        first = 1
    elif isinstance(g, SO) and g.n % 2:
        first = 2
    else:
        raise ValueError(f"no orthogonal cohomology oracle for {format_group(g)}")
    dims = poincare_coefficients(range(first, g.n + 1), top)
    pontryagin = poincare_coefficients(range(1, g.n // 2 + 1), top // 4)
    ranks = [0 if k % 4 else pontryagin[k // 4] for k in range(top + 1)]
    torsion = [0]
    for k in range(top):
        torsion.append(dims[k] - ranks[k] - torsion[k])
    return list(zip(ranks, torsion))


def _kunneth_cohomology(x, y, reach: int):
    """Kunneth's theorem through degree ``reach`` on (rank, [orders]) per degree."""
    out = [[0, []] for _ in range(reach + 1)]
    for i, (r, a) in enumerate(x):
        for j, (s, b) in enumerate(y):
            both = [gcd(u, v) for u in a for v in b]
            if i + j <= reach:  # H^i (x) H^j
                out[i + j][0] += r * s
                out[i + j][1] += a * s + b * r + both
            if 0 < i + j <= reach + 1:  # Tor(H^i, H^j) in degree i + j - 1
                out[i + j - 1][1] += both
    return [(rank, [m for m in orders if m > 1]) for rank, orders in out]


def relabelled(table, **metadata):
    """The table of ``table``'s series with the given metadata replaced."""
    labels = {name: getattr(table, name) for name in ("group", "field", "localization", "provenance")}
    return ChowTable(table.bound, table.free, table.levels, **{**labels, **metadata})


def pairwise_kunneth_table(factor_tables):
    """Kunneth product of integral tables folded pairwise, each step the
    two-table product ``polynomial_table([a, b], min(a.bound, b.bound))``,
    with their provenance merged: upper-bound if any factor is one, else
    exact, plus extrapolated-field if any factor is."""
    flags = [flag for table in factor_tables for flag in table.provenance]
    provenance = (UPPER_BOUND if UPPER_BOUND in flags else EXACT,)
    if EXTRAPOLATED_FIELD in flags:
        provenance += (EXTRAPOLATED_FIELD,)
    product = reduce(lambda a, b: polynomial_table([a, b], min(a.bound, b.bound)), factor_tables)
    return relabelled(product, provenance=provenance)


def labelled_kunneth_table(factor_tables):
    """Kunneth product of integral tables through the labelled reference
    API: graded.tensor folded over from_table of each table, then to_table."""
    group = from_table(factor_tables[0])
    for table in factor_tables[1:]:
        group = tensor(group, from_table(table))
    return to_table(group)


def from_counts_localize_table(table, p):
    """p-local view that rebuilds every row through ``DegreeRow.from_counts``,
    which sorts and checks it, and the table through the checking
    constructor: the reference for ``models.localize_table``."""
    rows = tuple(
        DegreeRow.from_counts(r.degree, r.free_rank, {q: m for q, m in r.counts if q % p == 0})
        for r in table.rows
    )
    return _view_table(table, rows, Localization("at_prime", p))


def from_counts_mod_p_table(table, p):
    """Mod-p view built the same way: the reference for ``models.mod_p_table``."""
    rows = tuple(
        DegreeRow.from_counts(r.degree, r.free_rank + sum(m for q, m in r.counts if q % p == 0), ())
        for r in table.rows
    )
    return _view_table(table, rows, Localization("mod_p", p))


def _view_table(table, rows, localization):
    metadata = (table.group, table.field, localization, table.provenance)
    return ChowTable.from_rows(rows, table.bound, *metadata)


def sylow_group_by_towers(n, p):
    """The p-Sylow subgroup of S_n as ``combine_product`` of one wreath tower
    per unit of each base-p digit of n, each tower built by its own loop of
    ``Wreath`` nodes: the reference for ``groups.sylow_group``."""
    towers, height = [], 0
    while n:
        n, digit = divmod(n, p)
        for _ in range(digit):
            tower = Trivial() if height == 0 else CyclicZ(p)
            for _ in range(height - 1):
                tower = Wreath(p, tower)
            towers.append(tower)
        height += 1
    return combine_product(towers)


def truncated_by_dict(table, bound):
    """``table.truncated(bound)`` the way the stored form was rebuilt from a
    dict: the cut series of every prime re-sorted and re-tupled, and the top
    levels equal to ``free`` dropped: the reference for the one-pass cut."""
    n = bound + 1
    free = table.free[:n]
    cut = {l: [s[:n] for s in lv] for l, lv in table.levels}
    levels = []
    for l in sorted(cut):
        lv = [tuple(s) for s in cut[l]]
        while lv and lv[-1] == free:
            lv.pop()
        if lv:
            levels.append((l, tuple(lv)))
    metadata = (table.group, table.field, table.localization, table.provenance)
    return ChowTable(bound, free, tuple(levels), *metadata)


def symmetric_local_by_kernel(n, p, k, bound):
    """The p-local table of S_n, n < 2p, as the Kunneth kernel builds the
    ring ``Z[x]/(p x)``, deg x = p - 1 (the point for n < p), with its
    metadata: the reference for ``chow_symmetric_local``."""
    require_char_ne(k, p, f"the {p}-local table of S_{n}")
    generators = [(p - 1, p)] if n >= p else []
    return polynomial_table(generators, bound, Symmetric(n), k, Localization("at_prime", p))


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


# ---------------------------------------------------------------------------
# the recursive group-expression walks: the parser, printer and structural
# functions of ``chowbg.groups`` as they were before its one product walk and
# its explicit parser stack, kept as the reference those are checked against


class RecursiveParser(_Parser):
    """Recursive descent: ``expr`` and ``term`` call each other once per
    open parenthesis or wreath product."""

    def expr(self):
        terms = [self.term()]
        while True:
            self.skip_ws()
            if self.lookahead("x"):
                self.pos += 1
                terms.append(self.term())
            else:
                break
        return combine_product(terms)

    def term(self):
        self.skip_ws()
        start = self.pos
        if self.lookahead("("):
            self.pos += 1
            inner = self.expr()
            self.expect(")")
            return inner
        for token, node in _ATOMS:
            if self.lookahead(token):
                self.pos += len(token)
                return node()
        for token, node in _INTEGER_TERMS:
            if self.lookahead(token):
                self.pos += len(token)
                n, at = self.integer()
                try:
                    g = node(n)
                except ValueError as e:
                    raise self.error(str(e), at) from None
                if token.endswith("("):
                    self.expect(")")
                return g
        if self.lookahead("wr("):
            self.pos += 3
            p, at = self.integer()
            if not is_prime(p):
                raise self.error("wreath degree must be prime", at)
            self.expect(",")
            inner = self.expr()
            self.expect(")")
            return Wreath(p, inner)
        raise self.error("expected a group term", start)


def recursive_parse_group_expr(text):
    parser = RecursiveParser(text)
    expr = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after group expression")
    return expr


def recursive_repr(value):
    """The frozen-dataclass repr of a record, its fields written recursively."""
    if not isinstance(value, Record):
        return repr(value)
    fields = ", ".join(f"{n}={recursive_repr(getattr(value, n))}" for n in value.__slots__)
    return f"{type(value).__qualname__}({fields})"


def recursive_format_group(g):
    match g:
        case Trivial():
            return "1"
        case CyclicZ(n):
            return f"Z/{n}"
        case FiniteAbelian(factors):
            return " x ".join(f"Z/{f}" for f in factors)
        case Gm():
            return "Gm"
        case GL(n):
            return f"GL({n})"
        case O(n):
            return f"O({n})"
        case SO(n):
            return f"SO({n})"
        case Sp(n):
            return f"Sp({n})"
        case G2():
            return "G2"
        case Symmetric(n):
            return f"S_{n}"
        case Wreath(p, inner):
            return f"wr({p}, {recursive_format_group(inner)})"
        case Product(left, right):
            return f"{recursive_format_group(left)} x {recursive_format_group(right)}"
    raise TypeError(f"not a group expression: {g!r}")


def recursive_group_dimension(g):
    match g:
        case Gm():
            return 1
        case GL(n):
            return n * n
        case O(n) | SO(n):
            return n * (n - 1) // 2
        case Sp(n):
            m = n // 2
            return m * (2 * m + 1)
        case G2():
            return 14
        case Trivial() | CyclicZ() | FiniteAbelian() | Symmetric():
            return 0
        case Wreath(p, inner):
            return p * recursive_group_dimension(inner)
        case Product(left, right):
            return recursive_group_dimension(left) + recursive_group_dimension(right)
    raise TypeError(f"not a group expression: {g!r}")


def recursive_generator_bound(g):
    match g:
        case Gm() | GL():
            return 0
        case O(n) | SO(n):
            return n * (n + 1) // 2
        case Sp(n):
            return n * (n - 1) // 2
        case G2():
            return 35
        case Product(left, right):
            return recursive_generator_bound(left) + recursive_generator_bound(right)
    raise UnsupportedError(
        f"no catalog embedding with known quotient for {recursive_format_group(g)}"
    )


def group_order(g):
    """|G| of a finite group expression, by recursion on the tree:
    |wr(p, H)| = p |H|^p; an infinite group raises ValueError."""
    match g:
        case Trivial() | SO(1):
            return 1
        case CyclicZ(n):
            return n
        case FiniteAbelian(factors):
            return reduce(lambda a, b: a * b, factors, 1)
        case Symmetric(n):
            return factorial(n)
        case O(1):
            return 2
        case Wreath(p, inner):
            return p * group_order(inner) ** p
        case Product(left, right):
            return group_order(left) * group_order(right)
    raise ValueError(f"not a finite group: {recursive_format_group(g)}")


def recursive_abelianization_orders(g):
    match g:
        case Trivial() | SO(1):
            return ()
        case CyclicZ(n):
            return (n,)
        case FiniteAbelian(factors):
            return factors
        case Symmetric(n):
            return (2,) if n >= 2 else ()
        case O(1):
            return (2,)
        case Wreath(p, inner):
            return (p,) + recursive_abelianization_orders(inner)
        case Product(left, right):
            return recursive_abelianization_orders(left) + recursive_abelianization_orders(right)
    raise ValueError(
        f"abelianization requires a finite group, got {recursive_format_group(g)}"
    )


# ---------------------------------------------------------------------------
# CH^1 oracles: the dimension and abelianization of a group expression, which
# chowbg.groups kept for the tests alone.  They walk on an explicit stack, so
# a 2,000-level wreath tower answers; the recursive_* functions above are
# their recursive originals.


def group_dimension(g: GroupExpr) -> int:
    """Dimension as an algebraic group; finite groups have dimension 0."""
    return sum(scale * _dimension(t) for t, scale in _walk(g))


def _dimension(g: GroupExpr) -> int:
    match g:
        case Gm():
            return 1
        case GL(n):
            return n * n
        case O(n) | SO(n):
            return n * (n - 1) // 2
        case Sp(n):
            m = n // 2
            return m * (2 * m + 1)
        case G2():
            return 14
        case Trivial() | CyclicZ() | FiniteAbelian() | Symmetric() | Wreath():
            return 0  # a wreath counts through its inner terms, scaled by p
    raise TypeError(f"not a group expression: {g!r}")


def _walk(g: GroupExpr):
    """The wreaths and leaves of g in pre-order, products spliced in, each
    with the product of the degrees of the wreaths above it."""
    stack = [(g, 1)]
    while stack:
        t, scale = stack.pop()
        if isinstance(t, Product):
            stack += ((t.right, scale), (t.left, scale))
        else:
            yield t, scale
            if isinstance(t, Wreath):
                stack.append((t.inner, scale * t.p))


def abelianization(g: GroupExpr) -> GroupExpr:
    """Abelianization of a finite catalog group, in invariant-factor form."""
    return abelian_expr(abelian_invariant_factors(g))


def abelian_invariant_factors(g: GroupExpr) -> tuple[int, ...]:
    return invariant_factors(m for t, _ in _walk(g) for m in _abelianization_orders(t))


def _abelianization_orders(g: GroupExpr) -> tuple[int, ...]:
    match g:
        case Trivial() | SO(1):
            return ()
        case CyclicZ(n):
            return (n,)
        case FiniteAbelian(factors):
            return factors
        case Symmetric(n):
            return (2,) if n >= 2 else ()
        case O(1):
            return (2,)
        case Wreath(p, _):
            return (p,)  # the walk visits its inner group
    raise ValueError(f"abelianization requires a finite group, got {format_group(g)}")


def order_valuation(g: GroupExpr, p: int) -> int:
    """v_p(|G|) of a finite group expression, on the explicit stack of
    ``_walk``: Z/m gives v_p(m), wr(q, H) gives v_p(q) + q v_p(|H|), and a
    product the sum over its factors; the Sylow order oracle."""
    return sum(scale * _valuation(_own_order(t), p) for t, scale in _walk(g))


def _own_order(g: GroupExpr) -> int:
    """The order a node of the walk contributes itself: a wreath its degree."""
    match g:
        case Trivial() | SO(1):
            return 1
        case CyclicZ(n):
            return n
        case FiniteAbelian(factors):
            return reduce(lambda a, b: a * b, factors, 1)
        case Symmetric(n):
            return factorial(n)
        case O(1):
            return 2
        case Wreath(q, _):
            return q  # the walk visits its inner group, scaled by q
    raise ValueError(f"not a finite group: {format_group(g)}")


def _valuation(m: int, p: int) -> int:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# the company of a cyclotomic Z/p: the p-torsion sources of a group over a
# field without mu_p, counted by recursion on the tree


def holds_roots_by_search(k, p):
    """Whether k holds the p-th roots of unity, p an odd prime other than
    char k: C and Qbar do; Q(mu_a) does iff p | a; F_l(mu_a) is the field
    with l**r elements, r the least with a | l**r - 1, and does iff
    p | l**r - 1."""
    if k.kind == "algebraically_closed":
        return True
    if k.characteristic == 0:
        return any(a % p == 0 for a in k.adjoined)
    l = k.characteristic
    r = next(r for r in count(1) if all((l**r - 1) % a == 0 for a in k.adjoined))
    return (l**r - 1) % p == 0


def cyclotomic_company(g, k):
    """(sources, routed) for g over k: ``sources`` counts, per prime p, the
    p-torsion sources of g, each invariant factor that p divides, each of
    the n // p disjoint p-cycles of an S_n and each wreath degree q = p, a
    wreath wr(q, H) holding q copies of the sources of H; classical groups
    hold only 2-torsion.  ``routed`` is the set of odd primes p other than
    char k with a Z/p term of g and mu_p not in k: the primes whose Z/p
    takes the cyclotomic (t, p) route."""
    sources, routed = Counter(), set()

    def walk(t, copies):
        match t:
            case CyclicZ() | FiniteAbelian():
                factors = (t.n,) if isinstance(t, CyclicZ) else t.factors
                n = factors[0]
                if len(factors) == 1 and n > 2 and n != k.characteristic and trial_is_prime(n):
                    if not holds_roots_by_search(k, n):
                        routed.add(n)
                for m in factors:
                    for p, _ in trial_factorint(m):
                        sources[p] += copies
            case Symmetric(n):
                for p in range(2, n + 1):
                    if trial_is_prime(p):
                        sources[p] += copies * (n // p)
            case Wreath(q, inner):
                sources[q] += copies
                walk(inner, copies * q)
            case Product(left, right):
                walk(left, copies)
                walk(right, copies)

    walk(g, 1)
    return sources, routed


def json_dump_reference(obj, out):
    """The CLI's JSON output as the json module writes it: the bytes
    chowbg.cli._emit_json must reproduce."""
    json.dump(obj, out, indent=2)
    out.write("\n")


_FIELD_RE = re.compile(r"^(C|Qbar|Q|F_(\d+))(?:\(mu_(\d+)\))?$")


def regex_field_parts(text: str):
    """The (base, characteristic digits, mu digits) that ``fields.parse_field``
    reads from a descriptor, by the regex it used to match, or None for text
    it must refuse as unrecognized."""
    m = _FIELD_RE.match(text.strip())
    return None if m is None else m.groups()
