"""Top-level table builder: CH^*(BG) for the supported catalog.

Every group but a wreath product is a list of Kunneth factors, and
``chow_model`` multiplies them with one ``tables.polynomial_table`` call:

* the point is the empty list;
* a classical group (Gm included) is the ``(degree, m)`` generator list of
  its catalog presentation, one ring ``Z[x]/(m x)`` per Chern class;
* a finite abelian group with enough roots of unity in the field is the
  symmetric algebra on its character group, one ``(1, m)`` generator per
  cyclic factor;
* a cyclic group of prime order p over a field lacking mu_p is ``(t, p)``,
  the ring ``Z[x^t]/(p x^t)`` of invariants, where t is the order of the
  cyclotomic-character image (``fields.apply_cyclotomic_invariants`` is
  the reference for this filter);
* a symmetric group S_n has one generator per prime p <= n, of degree
  p - 1 and order p: the p-local ring ``Z[x]/(p x)``, while the p-Sylow
  subgroup is cyclic (n < 2p);
* a wreath product wr(p, G) is the codimension cyclic power
  ``tables.cyclic_power_table`` of the table of G, built by ``chow_wreath``
  and memoized like any table; as a product term it is one table factor;
* a product concatenates the lists of its terms (the Kunneth rule).

Every rule assumes a characteristic prime to the orders it involves, checked
by ``fields.require_char_ne``, and the wreath rule mu_p in k, by ``require_mu``.
Anything outside this territory raises UnsupportedError, never a guess.

Tables are graded: the table through degree b is the first b + 1 degrees of
the table through any larger degree.  So the memo keeps one widest table per
(group, field), wreath products included, ``_memo`` serves a bound it reaches
by one locked read, and each public function builds at most one table from
it, through ``tables.cut``: a truncation, a view, a Sylow bound's provenance.
A Sylow bound builds its group once per memo lifetime and key (n // p, p).  A
build that needs a wreath table waits on an explicit stack, so a tower costs
no Python frames.  No function here builds rows: only a reader of ``rows`` does.
"""

from __future__ import annotations

from collections import namedtuple
from threading import Lock

from ._intmath import is_prime, require_prime
from .errors import UnsupportedError, echo_int
from .fields import (
    COMPLEX,
    FIELD_RULE_EXTRAPOLATED,
    FieldDescriptor,
    contains_mu,
    cyclotomic_order,
    invariance_rule_status,
    require_char_ne,
    require_mu,
)
from .groups import (
    G2,
    GL,
    SO,
    CyclicZ,
    FiniteAbelian,
    Gm,
    GroupExpr,
    O,
    Sp,
    Symmetric,
    Trivial,
    Wreath,
    product_terms,
    sylow_group,
)
from .presentations import catalog_presentation, presentation_generators
from .tables import (
    EXACT,
    EXTRAPOLATED_FIELD,
    INTEGRAL,
    UPPER_BOUND,
    ChowTable,
    cut,
    cyclic_power_table,
    localize_table,  # bound for chowbg.__init__ and for tracers; the views call cut
    mod_p_table,
    polynomial_table,
    shared_localization,
)


# ---------------------------------------------------------------------------
# the dispatcher

CacheInfo = namedtuple("CacheInfo", "hits misses currsize")
_widest: dict = {}  # (g, k) -> the table of the largest bound built
_sylow: dict = {}  # (n // p, p) -> the p-Sylow group of S_n, which S_{n - n mod p} shares
_stats = [0, 0]  # hits, misses
_lock = Lock()  # guards the store and the counts; a build runs outside it


def chow_model(g: GroupExpr, k: FieldDescriptor, bound: int) -> ChowTable:
    """Integral additive table of CH^*(BG) over k through the given degree:
    the stored table at its own bound, a fresh truncation below it.

    ``chow_model.cache_info()`` counts every memo lookup, those of wreath
    inner tables and product terms included, and a truncation as a hit, so
    the misses are the builds and ``currsize`` the (g, k) entries;
    ``chow_model.cache_clear()`` empties both and the Sylow groups."""
    t = _memo(g, k, bound)
    if t.bound == bound:
        return t
    return cut(bound, t.free, t.levels, t.group, t.field, t.localization, t.provenance)


def _memo(g: GroupExpr, k: FieldDescriptor, bound: int) -> ChowTable:
    """The stored table of (g, k), built if its bound is below ``bound``."""
    builds = []  # (group, build) pairs waiting for a table, innermost last
    while True:
        with _lock:
            table = _widest.get((g, k))
            hit = table is not None and 0 <= bound <= table.bound
            _stats[not hit] += 1
        if not hit:
            table = None
            builds.append((g, _build(g, k, bound)))  # it runs when sent a value
        while builds:
            group, build = builds[-1]
            try:
                g = build.send(table)  # the next group whose table it needs
                break
            except StopIteration as done:
                table = done.value
                builds.pop()
                with _lock:
                    stored = _widest.get((group, k))
                    if stored is None or bound > stored.bound:
                        _widest[(group, k)] = table
        else:
            return table


def _build(g: GroupExpr, k: FieldDescriptor, bound: int):
    """A generator that yields each wreath group whose table the table of
    (g, k) through ``bound`` needs, is sent that table, and returns its own."""
    if isinstance(g, Wreath):
        return chow_wreath(g.p, (yield g.inner).truncated(bound))
    factors, extrapolated = [], False
    for t in product_terms(g):
        generators, x = _model(t, k, bound, (yield t) if isinstance(t, Wreath) else None)
        factors += generators
        extrapolated |= x
    provenance = (EXACT, EXTRAPOLATED_FIELD) if extrapolated else (EXACT,)
    return polynomial_table(factors, bound, g, k, INTEGRAL, provenance)


def _cache_clear() -> None:
    with _lock:
        _widest.clear()
        _sylow.clear()
        _stats[:] = [0, 0]


chow_model.cache_info = lambda: CacheInfo(_stats[0], _stats[1], len(_widest))
chow_model.cache_clear = _cache_clear


def _model(
    g: GroupExpr, k: FieldDescriptor, bound: int, table: ChowTable | None
) -> tuple[list, bool]:
    """The Kunneth factors of a product term over k for a table through
    ``bound``, generators or a wreath's stored ``table``, and whether the
    field rule behind any is extrapolated.  A classical group lists only its
    Chern classes of degree <= bound, so its rank costs nothing."""
    match g:
        case Trivial():
            return [], False
        case Gm() | GL() | O() | SO() | Sp() | G2():
            if k.characteristic == 2 and isinstance(g, (O, SO)):
                require_char_ne(k, 2, f"CH^*(B{type(g).__name__}({echo_int(g.n)}))")
            return presentation_generators(catalog_presentation(g, bound)), False
        case CyclicZ() | FiniteAbelian():
            return _abelian_generators(g, k)
        case Symmetric(n):
            return _symmetric_generators(n, k, (p for p in range(2, n + 1) if is_prime(p))), False
        case Wreath():
            return [table], EXTRAPOLATED_FIELD in table.provenance
    raise TypeError(f"not a group expression: {g!r}")


def _abelian_generators(g: GroupExpr, k: FieldDescriptor) -> tuple[list, bool]:
    """``_model`` of a finite abelian group: ``(1, m)`` per cyclic factor, or
    ``(t, p)`` for a single Z/p over a field without mu_p."""
    factors = (g.n,) if isinstance(g, CyclicZ) else g.factors
    for m in factors:  # the text of a check that passes is not built
        if k.characteristic and m % k.characteristic == 0:
            require_char_ne(k, m, f"B(Z/{echo_int(m)})")
    if all(contains_mu(k, m) for m in factors):
        return [(1, m) for m in factors], False
    # general-field path: only a single prime-order cyclic group is established
    if len(factors) == 1 and is_prime(factors[0]):
        p = factors[0]
        extrapolated = invariance_rule_status(k, p) == FIELD_RULE_EXTRAPOLATED
        return [(cyclotomic_order(k, p), p)], extrapolated
    raise UnsupportedError(
        f"{k.name or 'the base field'} lacks the roots of unity needed for "
        f"{' x '.join(f'Z/{echo_int(m)}' for m in factors)}; only a single Z/p is established "
        "over such fields"
    )


# ---------------------------------------------------------------------------
# wreath products and symmetric groups


def chow_wreath(p: int, inner: ChowTable) -> ChowTable:
    """Table of B(wr(p, G)) from the table of BG via the codim cyclic power."""
    require_prime(p)
    if EXACT not in inner.provenance or UPPER_BOUND in inner.provenance:
        raise UnsupportedError("wreath construction needs an exact inner table")
    if inner.field is not None:
        require_mu(inner.field, p, f"wr({p}, -)")
    group = Wreath(p, inner.group) if inner.group is not None else None
    return cyclic_power_table(inner, p, group, inner.field, INTEGRAL, inner.provenance)


def chow_symmetric_local(n: int, p: int, k: FieldDescriptor, bound: int) -> ChowTable:
    """p-localized table of CH^*(BS_n): supported while the p-Sylow subgroup
    is trivial (n < p) or cyclic of order p (p <= n < 2p).

    In the cyclic case the normalizer acts on the Sylow subgroup through
    the full scalar group, so the stable classes are the scalar invariants:
    one Z/p in every positive degree divisible by p - 1, the ring
    ``Z[x]/(p x)`` with ``deg x = p - 1``.  The outcome is the same for
    every base field of characteristic != p.
    """
    at_p = shared_localization("at_prime", p)  # a p that is not prime raises here
    if n < 1:
        raise ValueError("n must be >= 1")
    return _symmetric_local(Symmetric(n), p, k, bound, at_p)


def _symmetric_local(g: Symmetric, p: int, k: FieldDescriptor, bound: int, loc) -> ChowTable:
    """``chow_symmetric_local`` of g, or its mod-p view for a mod-p ``loc``, as one table."""
    cyclic = _symmetric_generators(g.n, k, (p,))  # [(p - 1, p)] while the Sylow group is Z/p
    if bound < 0:
        raise ValueError("table must have one row per degree 0..bound")
    period = (1,) + (0,) * (p - 2) if cyclic and p <= bound + 1 else ()  # G_{p,1}: 1 where p-1 | d
    levels = ((p, ((period * (bound // (p - 1) + 1))[: bound + 1],)),) if period else ()
    return cut(bound, (1,) + (0,) * bound, levels, g, k, loc, (EXACT,), True)


def chow_symmetric_sylow_bound(
    n: int, p: int, bound: int, field: FieldDescriptor = COMPLEX
) -> ChowTable:
    """Exact table of the p-Sylow subgroup of S_n, an upper bound containing
    the p-local Chow groups of BS_n as a split summand."""
    require_prime(p)
    if not contains_mu(field, p):  # the text of a check that passes is not built
        require_mu(field, p, f"the {p}-Sylow table of S_{echo_int(n)}")
    group = _sylow.get((n // p, p)) or _sylow.setdefault((n // p, p), sylow_group(n, p))
    t = _memo(group, field, bound)
    return cut(bound, t.free, t.levels, t.group, t.field, t.localization, (EXACT, UPPER_BOUND))


def chow_integral_symmetric(n: int, bound: int, field: FieldDescriptor = COMPLEX) -> ChowTable:
    """Integral table of CH^*(BS_n) for n <= 3: degree 0 is Z and each
    positive degree is the direct sum of the p-local torsion over p <= n,
    the Kunneth product of the local rings (mixed monomials have gcd 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _memo(Symmetric(n), field, bound).truncated(bound)


def _symmetric_generators(n: int, k: FieldDescriptor, primes) -> list[tuple[int, int]]:
    """The generators of CH^*(BS_n) at each prime of ``primes``: none while
    the p-Sylow subgroup is trivial (n < p), degree p - 1 and order p while
    it is cyclic of order p (n < 2p); a larger Sylow subgroup raises."""
    generators = []
    for p in primes:
        if k.characteristic and p % k.characteristic == 0:  # the text is built only to refuse
            require_char_ne(k, p, f"the {p}-local table of S_{echo_int(n)}")
        if n >= 2 * p:
            raise UnsupportedError(
                f"the {p}-Sylow subgroup of S_{echo_int(n)} is not cyclic; the stable-element "
                "computation beyond prime-order Sylow subgroups is not available"
            )
        if n >= p:
            generators.append((p - 1, p))
    return generators


def chow_model_localized(g: GroupExpr, k: FieldDescriptor, bound: int, p: int) -> ChowTable:
    """p-local table: symmetric groups use their dedicated local route,
    everything else localizes the integral table."""
    at_p = shared_localization("at_prime", p)  # a p that is not prime raises here
    if isinstance(g, Symmetric):
        return _symmetric_local(g, p, k, bound, at_p)
    t = _memo(g, k, bound)
    return cut(bound, t.free, t.levels, t.group, t.field, at_p, t.provenance, True)


def chow_model_mod_p(g: GroupExpr, k: FieldDescriptor, bound: int, p: int) -> ChowTable:
    """F_p-dimension table: the mod-p view (``mod_p_table``) of the table
    ``chow_model_localized`` would localize, with the same checks in the same
    order, built as one table; it reads only the p-power torsion."""
    mod_p = shared_localization("mod_p", p)  # a p that is not prime raises here
    if isinstance(g, Symmetric):
        return _symmetric_local(g, p, k, bound, mod_p)
    t = _memo(g, k, bound)
    return cut(bound, t.free, t.levels, t.group, t.field, mod_p, t.provenance, True)
