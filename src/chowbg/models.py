"""Top-level table builder: CH^*(BG) for the supported catalog.

Every group but a wreath product is a list of Kunneth factors, and
``chow_model`` multiplies them with one ``tables.polynomial_table`` call:

* the point is the empty list;
* a classical group (Gm included) is the ``(degree, m)`` list of its catalog
  rule, ``presentations.catalog_classes``, one ring ``Z[x]/(m x)`` per Chern
  class, read without building the ``RingPresentation`` the rule also makes;
* a finite abelian group is decided on its exponent e, which every invariant
  factor divides: with mu_e in the field it is the symmetric algebra on its
  character group, one ``(1, m)`` generator per cyclic factor;
* over a field lacking mu_e, ``_cyclotomic`` decides it: a Z/p is ``(t, p)``,
  the ring ``Z[x^t]/(p x^t)`` of invariants, t the order of the cyclotomic-
  character image, any other is refused, and ``_build`` first refuses a
  product or wreath product in which such a Z/p meets other p-torsion;
* a symmetric group S_n has one generator per prime p <= n, of degree
  p - 1 and order p: the p-local ring ``Z[x]/(p x)``, while the p-Sylow
  subgroup is cyclic (n < 2p);
* a wreath product wr(p, G) is the codimension cyclic power
  ``tables.cyclic_power_table`` of the table of G, built by ``chow_wreath``
  and memoized like any table; as a product term it is one table factor;
* a product concatenates the lists of its terms (the Kunneth rule).

Every rule assumes char k prime to the orders it involves, the wreath rule mu_p
in k too; ``fields.require_char_ne``/``require_mu`` word each refusal, after a test.
Anything outside this territory raises UnsupportedError, never a guess.

Tables are graded: the table through degree b is the first b + 1 degrees of
the table through any larger degree.  So the memo keeps one widest table per
(group, field).  ``_memo`` serves a bound it reaches by one locked read.  Each
build is a ``_steps`` generator that yields the groups it waits on (a wreath's
inner group, a product's wreath terms), then its table; ``_build`` runs them
on one stack, so depth costs no Python frames.  Each public function builds at
most one table from the stored one: ``chow_model`` a truncation, by
``ChowTable.truncated``, the views and the Sylow bound a ``tables.cut``.  S_n
tables come only from these general entry points, and the two views share one
body, ``_view``, which cuts S_n's p-local ring from its closed form without
the memo.  A Sylow bound builds its group once per memo lifetime and key
(n // p, p).  Only a reader of ``rows`` builds rows.
"""

from __future__ import annotations

from collections import namedtuple
from threading import Lock

from ._intmath import is_prime, require_prime
from .errors import UnsupportedError, echo_int
from .fields import ALGEBRAICALLY_CLOSED, COMPLEX, FieldDescriptor, contains_mu, require_char_ne, require_mu
from .groups import (
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
    product_terms,
    sylow_group,
)
from .presentations import catalog_generators
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

    ``chow_model.cache_info()`` counts as hits the memo lookups that a stored
    table serves (wreath inner tables, product terms and truncations included),
    as misses the builds that finish, and as ``currsize`` the (g, k) entries;
    ``chow_model.cache_clear()`` empties both and the Sylow groups."""
    return _memo(g, k, bound).truncated(bound)


def _memo(g: GroupExpr, k: FieldDescriptor, bound: int, build: bool = True) -> ChowTable | None:
    """The stored table of (g, k) if it reaches ``bound``, counted as a hit, by
    one locked read; else the table built and stored, or None without ``build``."""
    with _lock:
        table = _widest.get((g, k))
        if table is not None and 0 <= bound <= table.bound:
            _stats[0] += 1
            return table
    return _build(g, k, bound) if build else None


def _build(g: GroupExpr, k: FieldDescriptor, bound: int) -> ChowTable:
    """Build and store the table of (g, k) through ``bound``, and each table it waits on
    that the memo lacks, in recursion order: one ``_steps`` generator each, on one stack.
    A product or wreath product over a field that is not closed is checked whole first."""
    if k.kind != ALGEBRAICALLY_CLOSED and type(g) in (Product, Wreath):
        from . import _cyclotomic

        _cyclotomic.require_alone(g, k)
    builds, step = [_steps(g, k, bound)], None
    while builds:
        step = builds[-1].send(step)  # None starts a build; a table resumes one
        if type(step) is ChowTable:  # a finished build's table, sent to the build below
            builds.pop()
        else:  # a group it waits on, built first
            builds.append(_steps(step, k, bound))
            step = None
    return step


def _steps(g: GroupExpr, k: FieldDescriptor, bound: int):
    """The build of (g, k) through ``bound``: yields each group whose table it waits on and
    the memo lacks, is sent that table, and yields its own stored table last.  A wreath
    waits on its inner group, a product on its wreath terms, each one Kunneth factor."""
    if isinstance(g, Wreath):
        inner = _memo(g.inner, k, bound, False) or (yield g.inner)
        table = chow_wreath(g.p, inner.truncated(bound))
    else:
        factors, extrapolated = [], False
        for t in product_terms(g) if isinstance(g, Product) else (g,):
            if isinstance(t, Wreath):
                generators = [_memo(t, k, bound, False) or (yield t)]
                x = EXTRAPOLATED_FIELD in generators[0].provenance
            else:
                generators, x = _model(t, k, bound)
            factors += generators
            extrapolated |= x
        provenance = (EXACT, EXTRAPOLATED_FIELD) if extrapolated else (EXACT,)
        table = polynomial_table(factors, bound, g, k, INTEGRAL, provenance)
    yield _store(g, k, bound, table)


def _store(g: GroupExpr, k: FieldDescriptor, bound: int, table: ChowTable) -> ChowTable:
    """Count the build of ``table`` and keep it unless a wider table of (g, k) is stored."""
    with _lock:
        _stats[1] += 1
        stored = _widest.get((g, k))
        if stored is None or bound > stored.bound:
            _widest[(g, k)] = table
    return table


def _cache_clear() -> None:
    with _lock:
        _widest.clear()
        _sylow.clear()
        _stats[:] = [0, 0]


chow_model.cache_info = lambda: CacheInfo(_stats[0], _stats[1], len(_widest))
chow_model.cache_clear = _cache_clear


def _model(g: GroupExpr, k: FieldDescriptor, bound: int) -> tuple[list, bool]:
    """The Kunneth generators over k of a product term, not a wreath product, for
    a table through ``bound``, and whether the field rule behind any is extrapolated;
    a classical group lists only its Chern classes of degree <= bound."""
    match g:
        case Trivial():
            return [], False
        case Gm() | GL() | O() | SO() | Sp() | G2():
            if k.characteristic == 2 and isinstance(g, (O, SO)):
                require_char_ne(k, 2, f"CH^*(B{type(g).__name__}({echo_int(g.n)}))")
            return catalog_generators(g, bound), False
        case CyclicZ() | FiniteAbelian():
            return _abelian_generators(g, k)
        case Symmetric(n):
            return _symmetric_generators(n, k, (p for p in range(2, n + 1) if is_prime(p))), False
    raise TypeError(f"not a group expression: {g!r}")


def _abelian_generators(g: GroupExpr, k: FieldDescriptor) -> tuple[list, bool]:
    """``_model`` of a finite abelian group, decided on its exponent e, the first factor:
    tame for e, ``(1, m)`` per cyclic factor with mu_e in k, else ``_cyclotomic``'s rule."""
    factors = (g.n,) if isinstance(g, CyclicZ) else g.factors
    e = factors[0]
    if k.characteristic and e % k.characteristic == 0:  # the text is built only to refuse
        require_char_ne(k, e, f"B(Z/{echo_int(e)})")
    if contains_mu(k, e):
        return [(1, m) for m in factors], False
    from . import _cyclotomic  # the cyclotomic rule: (t, p) for a single Z/p, else refused

    return _cyclotomic.abelian_generators(factors, k)


# ---------------------------------------------------------------------------
# wreath products and symmetric groups


def chow_wreath(p: int, inner: ChowTable) -> ChowTable:
    """Table of B(wr(p, G)) from the exact integral table of BG via the codim cyclic power."""
    require_prime(p)
    if EXACT not in inner.provenance or UPPER_BOUND in inner.provenance:
        raise UnsupportedError("wreath construction needs an exact inner table")
    if inner.localization.kind != "integral":
        raise UnsupportedError("wreath construction needs an integral inner table")
    if inner.field is not None and not contains_mu(inner.field, p):  # the text is built to refuse
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
    require_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    return chow_model_localized(Symmetric(n), k, bound, p)


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
    return chow_model(Symmetric(n), field, bound)


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
    return _view(g, k, bound, shared_localization("at_prime", p))  # a p not prime raises here


def chow_model_mod_p(g: GroupExpr, k: FieldDescriptor, bound: int, p: int) -> ChowTable:
    """F_p-dimension table: the mod-p view (``mod_p_table``) of the table
    ``chow_model_localized`` would localize, with the same checks in the same
    order, built as one table; it reads only the p-power torsion."""
    return _view(g, k, bound, shared_localization("mod_p", p))  # a p not prime raises here


def _view(g: GroupExpr, k: FieldDescriptor, bound: int, loc) -> ChowTable:
    """The view ``loc`` of the table of (g, k) through ``bound``, as one table:
    cut from the stored table, or for S_n from its p-local ring."""
    if isinstance(g, Symmetric):
        p = loc.prime
        cyclic = _symmetric_generators(g.n, k, (p,))  # [(p - 1, p)] while the Sylow group is Z/p
        if bound < 0:
            raise ValueError("table must have one row per degree 0..bound")
        period = (1,) + (0,) * (p - 2) if cyclic and p <= bound + 1 else ()  # 1 where p - 1 | d
        levels = ((p, ((period * (bound // (p - 1) + 1))[: bound + 1],)),) if period else ()
        return cut(bound, (1,) + (0,) * bound, levels, g, k, loc, (EXACT,))
    t = _memo(g, k, bound)
    return cut(bound, t.free, t.levels, t.group, t.field, loc, t.provenance)
