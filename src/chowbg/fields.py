"""Base-field descriptors and cyclotomic/Galois bookkeeping.

The only field data the tables depend on is the characteristic and, per
prime p, the order t of the image of the mod-p cyclotomic character: the
group through which the absolute Galois group permutes the p-th roots of
unity.  t = 1 exactly when the field already contains them.  A field that
contains the roots of unity a table needs is answered here; the arithmetic of
the others and the cyclotomic-invariant filter are in ``_cyclotomic``,
compiled on first use, with a delegate of the same name here for each.
"""

from __future__ import annotations

from math import lcm

from ._intmath import is_prime, require_prime
from ._record import Record
from .errors import FieldParseError, UnsupportedError
from .tables import ChowTable

ALGEBRAICALLY_CLOSED = "algebraically_closed"
PRIME_FIELD = "prime_field"
CYCLOTOMIC_EXTENSION = "cyclotomic_extension"


class FieldDescriptor(Record):
    __slots__ = ("characteristic", "kind", "adjoined", "name")

    def __init__(
        self,
        characteristic: int,  # 0 or a prime
        kind: str,
        adjoined: tuple[int, ...] = (),  # orders m of adjoined root-of-unity groups
        name: str = "",
    ):
        if characteristic != 0 and not is_prime(characteristic):
            raise ValueError("characteristic must be 0 or prime")
        if kind not in (ALGEBRAICALLY_CLOSED, PRIME_FIELD, CYCLOTOMIC_EXTENSION):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == CYCLOTOMIC_EXTENSION and not adjoined:
            raise ValueError("cyclotomic extension needs at least one adjoined order")
        super().__init__(characteristic, kind, adjoined, name)


COMPLEX = FieldDescriptor(0, ALGEBRAICALLY_CLOSED, name="C")


def _field_integer(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise FieldParseError(f"integer of {len(digits)} digits is too long") from None


def parse_field(text: str) -> FieldDescriptor:
    """Accepted forms: C, Qbar, Q, Q(mu_p), F_l, F_l(mu_p), l and p runs of
    decimal digits.  Read by ``str`` methods: a regex would be compiled by
    every process that imports this module."""
    base, adjoin, rest = text.strip().partition("(mu_")
    char_str = base[2:] if base.startswith("F_") else None
    mu_str = rest[:-1] if adjoin and rest.endswith(")") else None
    if (base not in ("C", "Qbar", "Q") and not (char_str or "").isdecimal()) or (
        adjoin and not (mu_str or "").isdecimal()
    ):
        raise FieldParseError(f"unrecognized field descriptor {text!r}")
    char = 0
    if char_str is not None:
        char = _field_integer(char_str)
        if not is_prime(char):
            raise FieldParseError(f"finite-field characteristic must be prime: {text!r}")
    if base in ("C", "Qbar"):
        if mu_str is not None:
            raise FieldParseError(f"{base} already contains all roots of unity: {text!r}")
        return FieldDescriptor(0, ALGEBRAICALLY_CLOSED, name=base)
    if mu_str is None:
        return FieldDescriptor(char, PRIME_FIELD, name=text.strip())
    mu = _field_integer(mu_str)
    if mu < 1 or (char != 0 and mu % char == 0):
        raise FieldParseError(f"cannot adjoin mu_{mu} in characteristic {char}")
    return FieldDescriptor(char, CYCLOTOMIC_EXTENSION, (mu,), name=text.strip())


def cyclotomic_order(k: FieldDescriptor, p: int) -> int:
    """Order of the image of the mod-p cyclotomic character; divides p - 1."""
    from . import _cyclotomic

    return _cyclotomic.cyclotomic_order(k, p)


def contains_mu(k: FieldDescriptor, m: int) -> bool:
    """Whether k contains all m-th roots of unity (m coprime to the characteristic)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if k.characteristic != 0 and m % k.characteristic == 0:
        return False
    if m <= 2 or k.kind == ALGEBRAICALLY_CLOSED:
        return True
    if k.characteristic == 0:
        # Q(mu_a) contains mu_m iff m divides a (for even a) or 2a (odd a)
        cap = 2
        for a in k.adjoined:
            cap = lcm(cap, a if a % 2 == 0 else 2 * a)
        return cap % m == 0
    # F_q contains mu_m iff m divides q - 1
    from . import _cyclotomic

    return pow(k.characteristic, _cyclotomic.extension_degree(k), m) == 1


FIELD_RULE_ESTABLISHED = "established"
FIELD_RULE_EXTRAPOLATED = "extrapolated"


def invariance_rule_status(k: FieldDescriptor, p: int) -> str:
    from . import _cyclotomic

    return _cyclotomic.invariance_rule_status(k, p)


# ---------------------------------------------------------------------------
# the Galois fixed-subgroup exponent and the cyclotomic-invariant filter


class GaloisFixedSpec(Record):
    """Fixed subgroup of degree-i classes with coefficients twisted i times.

    exponent None: the fixed subgroup is zero (degree not a multiple of
    p - 1).  exponent c >= 1: the fixed subgroup is the kernel of
    multiplication by p**c.
    """

    __slots__ = ("prime", "codegree", "exponent")

    def is_zero(self) -> bool:
        return self.exponent is None


def galois_fixed_exponent(p: int, i: int) -> GaloisFixedSpec:
    """Case split: zero unless (p-1) | i; for i = a * p**r * (p-1) with a
    prime to p the answer is the kernel of p**(r+1)."""
    require_prime(p)
    if i < 1:
        raise ValueError("degree must be >= 1")
    if i % (p - 1) != 0:
        return GaloisFixedSpec(p, i, None)
    a, r = i // (p - 1), 0
    while a % p == 0:
        a //= p
        r += 1
    return GaloisFixedSpec(p, i, r + 1)


def apply_cyclotomic_invariants(table: ChowTable, t: int) -> ChowTable:
    """Keep the degree-i rows of a B(Z/p) table with t | i; zero the others."""
    from . import _cyclotomic

    return _cyclotomic.apply_cyclotomic_invariants(table, t)


def require_char_ne(k: FieldDescriptor, m: int, what: str) -> None:
    """Tameness: raise UnsupportedError when char k divides m."""
    if k.characteristic != 0 and m % k.characteristic == 0:
        raise UnsupportedError(f"{what} is only established in characteristic prime to {m}")


def require_mu(k: FieldDescriptor, m: int, what: str) -> None:
    """Tameness, then mu_m in k: raise UnsupportedError unless both hold."""
    require_char_ne(k, m, what)
    if not contains_mu(k, m):
        raise UnsupportedError(f"{what} needs the roots of unity of order {m} in the base field")
