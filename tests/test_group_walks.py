"""The group-expression walks against their recursive originals.

``chowbg.groups`` reads an expression in one loop with an explicit stack and
walks a product through ``product_terms``; ``oracles`` keeps the recursive
parser, printer and structural functions that came before.  Both must give
the same tree or the same parse error (message and byte offset) on printed
expressions, randomly parenthesised products and single-character edits of
them, and the same values or error texts on arbitrary product trees.  The
repr and pickling of tree nodes, which also walk on explicit stacks, must
match the recursive repr and answer for trees past the Python stack.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowbg._intmath import invariant_factors
from chowbg.errors import GroupParseError, UnsupportedError
from chowbg.groups import (
    G2,
    GL,
    CyclicZ,
    Product,
    Wreath,
    format_group,
    generator_bound,
    parse_group_expr,
    product_terms,
    sylow_group,
)
from oracles import (
    abelian_invariant_factors,
    group_dimension,
    recursive_abelianization_orders,
    recursive_format_group,
    recursive_generator_bound,
    recursive_group_dimension,
    recursive_parse_group_expr,
    recursive_repr,
)
from strategies import atomic_groups, group_exprs, parenthesised_products

# characters of the grammar, whitespace, and two that are more than one
# UTF-8 byte, so that an edit can move a byte offset away from a str index
EDIT_CHARS = "()x,wrZ/GLOSpmG2_0123456789 \té×"


def _outcome(parse, text):
    try:
        return ("tree", parse(text))
    except GroupParseError as e:
        return ("error", str(e), e.offset)


def _printed_texts():
    return st.one_of(
        group_exprs(max_terms=4).map(format_group),
        parenthesised_products().map(lambda drawn: drawn[1]),
    )


@st.composite
def edited_texts(draw):
    """A printed or parenthesised expression with at most one character
    deleted, inserted or replaced."""
    text = draw(_printed_texts())
    at = draw(st.integers(min_value=0, max_value=len(text)))
    char = draw(st.sampled_from(EDIT_CHARS))
    edit = draw(st.sampled_from(["none", "delete", "insert", "replace"]))
    if edit == "delete":
        return text[:at] + text[at + 1 :]
    if edit == "insert":
        return text[:at] + char + text[at:]
    if edit == "replace":
        return text[:at] + char + text[at + 1 :]
    return text


def _recursive_invariant_factors(g):
    return invariant_factors(recursive_abelianization_orders(g))


def _raw_products():
    """Product trees of any shape, not only the parser's canonical ones:
    nested on either side, with trivial and scattered abelian factors."""
    return st.recursive(atomic_groups(), lambda t: st.builds(Product, t, t), max_leaves=6)


def _tower(p, depth, inner):
    return parse_group_expr(f"wr({p}, " * depth + inner + ")" * depth)


class TestParserDifferential:
    @given(_printed_texts())
    def test_printed_expressions(self, text):
        assert _outcome(parse_group_expr, text) == _outcome(recursive_parse_group_expr, text)

    @given(edited_texts())
    def test_single_character_edits(self, text):
        assert _outcome(parse_group_expr, text) == _outcome(recursive_parse_group_expr, text)

    @given(_printed_texts(), st.integers(min_value=0, max_value=40), st.sampled_from(["", " "]))
    def test_nested_parentheses(self, text, depth, pad):
        nested = f"({pad}" * depth + text + f"{pad})" * depth
        assert _outcome(parse_group_expr, nested) == _outcome(recursive_parse_group_expr, nested)

    @pytest.mark.parametrize(
        "text",
        [
            *("", "(", ")", "()", "x", "Z/2 x", "(Z/2))", "((Z/2)", "Z/0", "é", "(é)"),
            *("wr(", "wr(2,", "wr(4, Z/2)", "wr(2, Z/2", "wr(2 Z/2)", "wr(2, (Z/2 x GL(1))"),
            *("Sp(3) x (", "GL(1) x (O(1) x é", "(GL(1) x (O(1)) x Gm", "wr(3, (Z/3)) x"),
        ],
    )
    def test_malformed(self, text):
        assert _outcome(parse_group_expr, text) == _outcome(recursive_parse_group_expr, text)

    def test_order_one_cyclic_leaves_the_order_of_the_rest(self):
        # Z/1 is the trivial group before the product is combined, so the
        # abelian factor stays where Z/3 was, after G2
        assert format_group(parse_group_expr("Z/1 x G2 x Z/3")) == "G2 x Z/3"
        assert parse_group_expr("Z/1 x G2 x Z/3") == Product(G2(), CyclicZ(3))


class TestProductWalks:
    @given(_raw_products())
    def test_terms_are_the_leaves_from_left_to_right(self, g):
        printed = " x ".join(map(recursive_format_group, product_terms(g)))
        assert not any(isinstance(t, Product) for t in product_terms(g))
        assert printed == recursive_format_group(g)

    @given(_raw_products())
    def test_format_group(self, g):
        assert format_group(g) == recursive_format_group(g)

    @given(_raw_products())
    def test_group_dimension(self, g):
        assert group_dimension(g) == recursive_group_dimension(g)

    @given(_raw_products())
    def test_generator_bound(self, g):
        assert _value_or_error(generator_bound, g, UnsupportedError) == _value_or_error(
            recursive_generator_bound, g, UnsupportedError
        )

    @given(_raw_products())
    def test_abelian_invariant_factors(self, g):
        assert _value_or_error(abelian_invariant_factors, g, ValueError) == _value_or_error(
            _recursive_invariant_factors, g, ValueError
        )

    @pytest.mark.parametrize(
        "walk, oracle",
        [
            (format_group, recursive_format_group),
            (group_dimension, recursive_group_dimension),
            (generator_bound, recursive_generator_bound),
            (abelian_invariant_factors, _recursive_invariant_factors),
        ],
    )
    @pytest.mark.parametrize("bad", [5, Product(CyclicZ(2), 5), Product(5, G2())])
    def test_non_group_is_rejected_as_before(self, walk, oracle, bad):
        assert _value_or_error(walk, bad, Exception) == _value_or_error(oracle, bad, Exception)


def _value_or_error(walk, g, error):
    try:
        return ("value", walk(g))
    except error as e:
        return ("error", type(e).__name__, str(e))


TOWER_TEXT = "wr(2, " * 2000 + "Z/2" + ")" * 2000
FLAT_TEXT = " x ".join(["GL(1) x O(1)"] * 2000)


class TestDeepTrees:
    """Towers and long products past the Python stack: one node object per
    distinct group, and every walk on an explicit stack."""

    def test_dimension_of_a_2000_level_tower(self):
        # a wreath scales its inner group's dimension by p
        g = _tower(3, 2000, "GL(2) x Z/2")
        assert group_dimension(g) == 4 * 3**2000
        assert group_dimension(Product(g, GL(1))) == 4 * 3**2000 + 1

    def test_abelianization_of_a_2000_level_tower(self):
        # a wreath adds p to its inner group's abelianization
        g = _tower(2, 2000, "Z/4 x S_3")
        assert abelian_invariant_factors(g) == (4,) + (2,) * 2001
        assert abelian_invariant_factors(sylow_group(3**2001, 3)) == (3,) * 2001

    @pytest.mark.parametrize("text", [TOWER_TEXT, FLAT_TEXT], ids=["tower-2000", "product-4000"])
    def test_reparse_is_the_same_object(self, text):
        g = parse_group_expr(text)
        assert parse_group_expr(text) is g
        assert format_group(g) == text

    @settings(max_examples=150)
    @given(group_exprs())
    def test_printed_group_parses_to_itself(self, g):
        # a leaf keeps value equality; a wreath or product is the one interned node
        again = parse_group_expr(format_group(g))
        assert again is g if isinstance(g, (Wreath, Product)) else again == g

    @pytest.mark.parametrize("text", [TOWER_TEXT, FLAT_TEXT], ids=["tower-2000", "product-4000"])
    def test_pickle_and_copy_return_the_interned_node(self, text):
        g = parse_group_expr(text)
        assert pickle.loads(pickle.dumps(g)) is g
        assert copy.copy(g) is g and copy.deepcopy(g) is g

    def test_repr_of_a_2000_level_tower(self):
        from chowbg.fields import parse_field
        from chowbg.models import chow_model

        g = parse_group_expr(TOWER_TEXT)
        assert repr(g) == "Wreath(p=2, inner=" * 2000 + "CyclicZ(n=2)" + ")" * 2000
        assert repr(g) in repr(chow_model(g, parse_field("C"), 0))

    def test_shared_subtrees_pickle_once(self):
        # a tree that repeats a node is a graph of 2,000 nodes, not 2^2000 paths
        g = GL(1)
        for _ in range(2000):
            g = Product(g, g)
        assert pickle.loads(pickle.dumps(g)) is g and copy.deepcopy(g) is g

    @settings(max_examples=150)
    @given(st.one_of(group_exprs(), _raw_products()))
    def test_repr_and_pickle_match_the_recursive_originals(self, g):
        assert repr(g) == recursive_repr(g)
        assert pickle.loads(pickle.dumps(g)) == g
        assert copy.deepcopy(g) == g
