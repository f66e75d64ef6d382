"""Group expressions: AST, parser, printer, and structural data.

Grammar (whitespace-insensitive)::

    expr := term { "x" term }
    term := "1" | "Z/" int | "Gm" | "GL(" int ")" | "O(" int ")"
          | "SO(" int ")" | "Sp(" int ")" | "G2" | "S_" int
          | "wr(" prime "," expr ")" | "(" expr ")"

The parser produces canonical trees (``combine_product``):

* a parenthesised sub-product is spliced in: ``A x (B x C)`` has three terms;
* trivial factors are dropped;
* all finite abelian factors, adjacent or not, are gathered into one node in
  invariant-factor form at the place of the first: ``Z/2 x GL(1) x Z/3``
  is ``Z/6 x GL(1)``;
* products are binary ``Product`` nodes folded to the left.

Wreath and product nodes are interned, so printing a canonical tree and
reparsing gives the same object back.  No walk recurses: the parser keeps its
open ``(`` and ``wr(p,`` frames on a stack, the printer keeps its own, and
the printer spells terms with the parser's tokens.
"""

from __future__ import annotations

from functools import reduce
from threading import Lock
from weakref import WeakValueDictionary

from ._intmath import invariant_factors, is_prime, require_prime
from ._record import Record
from .errors import GroupParseError, UnsupportedError


class Trivial(Record):
    __slots__ = ()


class _Positive(Record):
    """A record of one integer n >= 1, which its class's ``_what`` names."""

    __slots__ = ()

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"{self._what} must be >= 1")
        super().__init__(n)


class CyclicZ(_Positive):
    __slots__ = ("n",)
    _what = "cyclic order"


class FiniteAbelian(Record):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[int, ...]):
        # invariant factors, decreasing divisibility chain
        if len(factors) < 1 or any(f < 2 for f in factors):
            raise ValueError("invariant factors must be >= 2")
        if any(a % b != 0 for a, b in zip(factors, factors[1:])):
            raise ValueError("factors must form a divisibility chain, largest first")
        super().__init__(factors)


class Gm(Record):
    __slots__ = ()


class GL(_Positive):
    __slots__ = ("n",)
    _what = "GL rank"


class O(_Positive):
    __slots__ = ("n",)
    _what = "O rank"


class SO(_Positive):
    __slots__ = ("n",)
    _what = "SO rank"


class Sp(Record):
    __slots__ = ("n",)

    def __init__(self, n: int):
        # the matrix size 2n; always even
        if n < 2 or n % 2 != 0:
            raise ValueError("Sp argument must be even and >= 2")
        super().__init__(n)


class G2(Record):
    __slots__ = ()


class Symmetric(_Positive):
    __slots__ = ("n",)
    _what = "symmetric group degree"


class _Node(Record):
    """A record with group children, interned: the constructor returns the one
    live node of its class and field values, also when unpickling or copying,
    so ``==`` and ``hash`` are identity, O(1) however deep the tree.  The
    repr and pickling walk the tree on explicit stacks, in ``_nodes``."""

    __slots__ = ("__weakref__",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    __init__ = object.__init__  # ``__new__`` fills the node

    def __new__(cls, *values):
        key = (cls, *values)  # children are interned nodes or leaves: the key hashes in O(1)
        node = _interned.get(key)  # a live node is read without the lock
        if node is None:
            node = object.__new__(cls)
            Record.__init__(node, *values)
            with _intern_lock:
                node = _interned.setdefault(key, node)
        return node

    def __repr__(self):
        from . import _nodes

        return _nodes.node_repr(self)

    def __reduce__(self):
        from . import _nodes

        return _nodes.node_reduce(self)


def _unflatten(entries) -> _Node:
    """The last node of a ``_Node.__reduce__`` list, built in order."""
    nodes: list = []
    for cls, values in entries:
        nodes.append(cls(*(nodes[v[0]] if isinstance(v, list) else v for v in values)))
    return nodes[-1]


_interned: WeakValueDictionary = WeakValueDictionary()
_intern_lock = Lock()


class Wreath(_Node):
    __slots__ = ("p", "inner")

    def __new__(cls, p: int, inner: GroupExpr):
        node = _interned.get((cls, p, inner))  # a live node's p was checked when it was made
        if node is None and not is_prime(p):
            raise ValueError("wreath degree must be prime")
        return super().__new__(cls, p, inner) if node is None else node


class Product(_Node):
    __slots__ = ("left", "right")


GroupExpr = (
    Trivial
    | CyclicZ
    | FiniteAbelian
    | Gm
    | GL
    | O
    | SO
    | Sp
    | G2
    | Symmetric
    | Wreath
    | Product
)


def abelian_expr(orders) -> GroupExpr:
    """Canonical node for a finite abelian group given by cyclic orders."""
    inv = invariant_factors(orders)
    if not inv:
        return Trivial()
    if len(inv) == 1:
        return CyclicZ(inv[0])
    return FiniteAbelian(inv)


def product_terms(g: GroupExpr):
    """The factors of g from left to right, nested products spliced in."""
    stack = [g]
    while stack:
        t = stack.pop()
        if isinstance(t, Product):
            stack += (t.right, t.left)
        else:
            yield t


def combine_product(terms) -> GroupExpr:
    """Canonical product: splice sub-products in, drop trivial factors,
    gather every finite abelian factor into one invariant-factor node at the
    place of the first, fold to the left."""
    flat: list[GroupExpr] = []
    orders: list[int] = []
    at = 0
    for t in (u for term in terms for u in product_terms(term)):
        if isinstance(t, (CyclicZ, FiniteAbelian)):
            if not orders:
                at = len(flat)
            orders += (t.n,) if isinstance(t, CyclicZ) else t.factors
        elif not isinstance(t, Trivial):
            flat.append(t)
    abelian = abelian_expr(orders)
    if not isinstance(abelian, Trivial):
        flat.insert(at, abelian)
    return reduce(Product, flat) if flat else Trivial()


# ---------------------------------------------------------------------------
# parser and printer


def _cyclic_term(n: int) -> GroupExpr:
    return abelian_expr((CyclicZ(n).n,))  # CyclicZ validates n; Z/1 is trivial


# Terms without an argument, and terms of one integer that their node's
# constructor validates.  No token is a prefix of another.
_ATOMS = (("1", Trivial), ("Gm", Gm), ("G2", G2))
_INTEGER_TERMS = (
    ("Z/", _cyclic_term),
    ("GL(", GL),
    ("O(", O),
    ("SO(", SO),
    ("Sp(", Sp),
    ("S_", Symmetric),
)
_WREATH = "wr("
# the parser's token of each leaf class, which the printer spells it with
_TOKENS = {node: token for token, node in _ATOMS + _INTEGER_TERMS}
_TOKENS[CyclicZ] = _TOKENS.pop(_cyclic_term)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, at: int | None = None) -> GroupParseError:
        pos = self.pos if at is None else at
        return GroupParseError(message, len(self.text[:pos].encode("utf-8")))

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def lookahead(self, s: str) -> bool:
        return self.text.startswith(s, self.pos)

    def expect(self, s: str) -> None:
        self.skip_ws()
        if not self.lookahead(s):
            raise self.error(f"expected {s!r}")
        self.pos += len(s)

    def integer(self) -> tuple[int, int]:
        self.skip_ws()
        start = self.pos
        # isdecimal, not isdigit: int() rejects digits such as "²" and "①"
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        try:
            return int(self.text[start : self.pos]), start
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            digits = self.pos - start
            raise self.error(f"integer of {digits} digits is too long", start) from None

    def expr(self) -> GroupExpr:
        """An open "(" or "wr(p," pushes a frame: the terms read before it and
        p (None for "("); its ")" pops the frame and appends the group made."""
        frames: list[tuple[list[GroupExpr], int | None]] = []
        terms: list[GroupExpr] = []
        while True:
            self.skip_ws()
            if self.lookahead("("):
                self.pos += 1
                frames.append((terms, None))
                terms = []
            elif self.lookahead(_WREATH):
                self.pos += len(_WREATH)
                p, at = self.integer()
                if not is_prime(p):
                    raise self.error("wreath degree must be prime", at)
                self.expect(",")
                frames.append((terms, p))
                terms = []
            else:
                terms.append(self.term())
                self.skip_ws()
                while not self.lookahead("x"):
                    g = combine_product(terms)
                    if not frames:
                        return g
                    self.expect(")")
                    terms, p = frames.pop()
                    terms.append(g if p is None else Wreath(p, g))
                    self.skip_ws()
                self.pos += 1

    def term(self) -> GroupExpr:
        """A term without sub-expressions: an atom or a term of one integer."""
        start = self.pos
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
        raise self.error("expected a group term", start)


def parse_group_expr(text: str) -> GroupExpr:
    parser = _Parser(text)
    expr = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after group expression")
    return expr


def format_group(g: GroupExpr) -> str:
    """The parser's spelling of g, from a stack of (text before, term, wreath ")"s after)."""
    out, stack = [], [("", g, 0)]
    while stack:
        before, t, close = stack.pop()
        out.append(before)
        match t:
            case Wreath(p, inner):
                stack.append((f"{_WREATH}{p}, ", inner, close + 1))
            case Product(left, right):
                stack += ((" x ", right, close), ("", left, 0))
            case FiniteAbelian(factors):
                out.append(" x ".join(f"{_TOKENS[CyclicZ]}{f}" for f in factors) + ")" * close)
            case _:
                token = _TOKENS.get(type(t))
                if token is None:
                    raise TypeError(f"not a group expression: {t!r}")
                out.append(f"{token}{getattr(t, 'n', '')}" + ")" * (close + token.endswith("(")))
    return "".join(out)


# ---------------------------------------------------------------------------
# structural data


def generator_bound(g: GroupExpr) -> int:
    """Degree bound for module generators over the Chern classes of the
    catalog embedding into a product of general linear groups.

    The bound is dim H - dim G for the embedding G -> H: the quotient H/G
    is an open subset of an affine space (nondegenerate quadratic forms for
    O, alternating forms for Sp, a general 3-form in 7 variables for G2).
    """
    return sum(map(_generator_bound, product_terms(g)))


def _generator_bound(g: GroupExpr) -> int:
    match g:
        case Gm() | GL():
            return 0
        case O(n) | SO(n):
            return n * (n + 1) // 2
        case Sp(n):
            return n * (n - 1) // 2
        case G2():
            return 35
    raise UnsupportedError(
        f"no catalog embedding with known quotient for {format_group(g)}"
    )


def sylow_group(n: int, p: int) -> GroupExpr:
    """The p-Sylow subgroup of S_n: each base-p digit d at position i of n
    gives d copies of the i-fold iterated wreath power of Z/p (height 0 is
    the trivial group), built in one walk over the base-p digits of n // p."""
    if n < 0:
        raise ValueError("n must be >= 0")
    require_prime(p)
    m, d = divmod(n // p, p)
    tower = CyclicZ(p)
    g = None if d == 0 else tower if d == 1 else FiniteAbelian((p,) * d)  # height 1: one node
    while m:
        m, d = divmod(m, p)
        tower = Wreath(p, tower)  # each height is built once
        for _ in range(d):
            g = tower if g is None else Product(g, tower)
    return Trivial() if g is None else g
