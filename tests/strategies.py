"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from chowbg.graded import CODIM, CyclicSummand, Generator, GradedAbelianGroup, normalize
from chowbg.groups import (
    G2,
    GL,
    SO,
    CyclicZ,
    FiniteAbelian,
    Gm,
    O,
    Sp,
    Symmetric,
    Trivial,
    Wreath,
    abelian_expr,
    combine_product,
    format_group,
    parse_group_expr,
    product_terms,
)

SMALL_ORDERS = (0, 2, 3, 4, 5, 8, 9, 12)


@st.composite
def graded_groups(draw, max_bound=5, max_summands=5, orders=SMALL_ORDERS):
    bound = draw(st.integers(min_value=0, max_value=max_bound))
    count = draw(st.integers(min_value=0, max_value=max_summands))
    summands = tuple(
        CyclicSummand(
            draw(st.sampled_from(orders)),
            draw(st.integers(min_value=0, max_value=bound)),
            Generator(f"g{i}"),
        )
        for i in range(count)
    )
    return normalize(GradedAbelianGroup(CODIM, summands, bound))


@st.composite
def atomic_base(draw):
    kind = draw(
        st.sampled_from(
            ["trivial", "cyclic", "abelian", "gm", "gl", "o", "so", "sp", "g2", "sym"]
        )
    )
    if kind == "trivial":
        return Trivial()
    if kind == "cyclic":
        return CyclicZ(draw(st.integers(min_value=2, max_value=60)))
    if kind == "abelian":
        return draw(_finite_abelian())
    if kind == "gm":
        return Gm()
    if kind == "gl":
        return GL(draw(st.integers(min_value=1, max_value=8)))
    if kind == "o":
        return O(draw(st.integers(min_value=1, max_value=8)))
    if kind == "so":
        return SO(draw(st.integers(min_value=1, max_value=9)))
    if kind == "sp":
        return Sp(2 * draw(st.integers(min_value=1, max_value=4)))
    if kind == "g2":
        return G2()
    return Symmetric(draw(st.integers(min_value=1, max_value=9)))


@st.composite
def _finite_abelian(draw):
    factors = draw(st.lists(st.integers(min_value=2, max_value=30), min_size=2, max_size=3))
    expr = abelian_expr(factors)
    # keep only genuinely multi-factor results so adjacency rules stay canonical
    return expr if isinstance(expr, FiniteAbelian) else CyclicZ(factors[0])


def _finite_atomic_base():
    """The finite atoms: trivial, Z/m, finite abelian, S_n, O(1) = Z/2, SO(1) = 1."""
    return st.one_of(
        st.sampled_from([Trivial(), O(1), SO(1)]),
        st.builds(CyclicZ, st.integers(min_value=2, max_value=60)),
        _finite_abelian(),
        st.builds(Symmetric, st.integers(min_value=1, max_value=9)),
    )


@st.composite
def atomic_groups(draw, base=atomic_base()):
    g = draw(base)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        g = Wreath(draw(st.sampled_from([2, 3, 5])), g)
    return g


@st.composite
def group_exprs(draw, max_terms=3, atoms=atomic_groups()):
    terms = draw(st.lists(atoms, min_size=1, max_size=max_terms))
    return combine_product(terms)


def finite_group_exprs():
    """Products of finite atoms wrapped in wreaths: groups that have an
    abelianization, unlike most draws of ``group_exprs``."""
    return group_exprs(atoms=atomic_groups(_finite_atomic_base()))


@st.composite
def parenthesised_products(draw, max_terms=5):
    """Atomic groups and a product text of them with random parentheses."""
    terms = draw(st.lists(atomic_groups(), min_size=1, max_size=max_terms))
    return terms, _write_product(draw, [format_group(t) for t in terms])


def _write_product(draw, texts):
    """The product of the term texts, cut into two parts at random, each
    part in parentheses or not."""
    if len(texts) == 1:
        return texts[0]
    cut = draw(st.integers(min_value=1, max_value=len(texts) - 1))
    parts = (_write_product(draw, texts[:cut]), _write_product(draw, texts[cut:]))
    return " x ".join(f"({part})" if draw(st.booleans()) else part for part in parts)


# isomorphic spellings: Z/2 four ways (away from characteristic 2), Gm two
_Z2_SPELLINGS = ("O(1)", "S_2", "wr(2, 1)", "Z/2")
_GM_SPELLINGS = ("GL(1)", "Gm")
_SPELLINGS = {
    parse_group_expr(text): spellings
    for spellings in (_Z2_SPELLINGS, _GM_SPELLINGS)
    for text in spellings
}


@st.composite
def isomorphic_spellings(draw, max_terms=3):
    """A group of ``group_exprs`` and the text of an isomorphic group: every
    Z/2 spelled as O(1), S_2, wr(2, 1) or Z/2 and every Gm as GL(1) or Gm,
    inside wreaths too, with "x 1" factors added, the factors permuted and
    the product randomly parenthesised."""
    g = draw(group_exprs(max_terms=max_terms))

    def spell_product(h):
        texts = [spell(t) for t in product_terms(h)]
        texts += ["1"] * draw(st.integers(min_value=0, max_value=2))
        return _write_product(draw, draw(st.permutations(texts)))

    def spell(t):
        if t in _SPELLINGS:
            return draw(st.sampled_from(_SPELLINGS[t]))
        if isinstance(t, Wreath):
            return f"wr({t.p}, {spell_product(t.inner)})"
        return format_group(t)

    return g, spell_product(g)
