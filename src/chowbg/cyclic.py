"""The p-th cyclic-power functor on graded abelian groups.

Given a normalized group with summands ``Z/a_i`` in degrees ``d_i``, write
S for the set of indices whose order is 0 or a power of p and whose
dimension is positive.  The cyclic power is built from three families:

  (1) one summand ``Z/gcd(a_{i_1}, ..., a_{i_p})`` in the sum of the
      degrees, for each rotation orbit of index tuples, excluding the
      constant tuples with index in S (coprime gcds contribute nothing);
  (2) one summand ``Z/(p * a_i)`` labeled gamma, in p times the degree,
      for each i in S (with p * 0 = 0, i.e. an infinite cyclic factor);
  (3) summands ``Z/p`` labeled alpha in the intermediate degrees, for
      each i in S.

In dimension grading the alpha range is d_i + 1 .. p*d_i - 1.  In
codimension grading, obtained as the large-ambient limit, a summand of
codegree c yields gamma in codegree p*c and alpha in every codegree from
p*c + 1 up to the validity bound; the positive-dimension condition on S
is vacuous in the limit.  The codimension alpha rule is the one
transcription step with no finite-ambient counterpart; it is validated by
the requirement that the trivial group reproduce the Z[x]/(px) table
(see the wreath base-case tests).

``cyclic_power_codim`` and ``cyclic_power_dim`` list the labelled summands
one rotation orbit at a time; they are the reference and the test oracle.
The compute path is ``tables.cyclic_power_table`` (re-exported here), which
gives the same codimension rows by counting orbits of (degree, order)
classes with Burnside's lemma.
"""

from __future__ import annotations

from math import gcd

from ._intmath import require_prime
from .errors import GradingError
from .graded import (
    CODIM,
    Alpha,
    CyclicSummand,
    Dim,
    Gamma,
    GradedAbelianGroup,
    Tensor,
    is_normalized,
    normalize,
)
from .tables import cyclic_power_table  # noqa: F401  (re-exported: the compute path)


def rotation_orbit_summary(n: int, p: int, excluded_diagonals: int) -> int:
    """Count rotation orbits of p-tuples over n letters, minus excluded diagonals.

    Burnside: the identity fixes n**p tuples and each of the p - 1 nontrivial
    rotations fixes exactly the n constant tuples.
    """
    require_prime(p)
    if not 0 <= excluded_diagonals <= n:
        raise ValueError("excluded diagonal count must lie in 0..n")
    return (n**p + (p - 1) * n) // p - excluded_diagonals


def _orbit_representatives(degrees: list[int], p: int, budget: int | None):
    """Minimal-rotation representatives of index p-tuples, degree sum <= budget,
    in lexicographic order.  The Fredricksen-Kessler-Maiorana recursion grows
    only prefixes of minimal rotations, tracking their period; a full tuple
    is minimal iff its period divides p."""
    n = len(degrees)
    rep = [0] * (p + 1)  # rep[1..p]; rep[0] seeds the first position
    found: list[tuple[int, ...]] = []

    def descend(pos: int, period: int, total: int) -> None:
        if pos > p:
            if p % period == 0:
                found.append(tuple(rep[1:]))
            return
        for i in range(rep[pos - period], n):
            d = degrees[i]
            if budget is not None and total + d > budget:
                continue
            rep[pos] = i
            descend(pos + 1, period if i == rep[pos - period] else pos, total + d)

    descend(1, 1, 0)
    return found


def _in_s_codim(s: CyclicSummand, p: int) -> bool:
    return s.order == 0 or s.order % p == 0


def _in_s_dim(s: CyclicSummand, p: int) -> bool:
    return (s.order == 0 or s.order % p == 0) and s.degree > 0


def _tensor_summands(summands, p, in_s, budget, out):
    degrees = [s.degree for s in summands]
    for rep in _orbit_representatives(degrees, p, budget):
        first = rep[0]
        if all(i == first for i in rep) and in_s[first]:
            continue  # replaced by the gamma summand
        order = 0
        for i in rep:
            order = gcd(order, summands[i].order)
        if order == 1:
            continue
        degree = sum(degrees[i] for i in rep)
        out.append(
            CyclicSummand(order, degree, Tensor(tuple(summands[i].label for i in rep)))
        )


def cyclic_power_codim(group: GradedAbelianGroup, p: int) -> GradedAbelianGroup:
    """Cyclic power in codimension grading; the validity bound is preserved."""
    require_prime(p)
    if group.grading != CODIM:
        raise GradingError("cyclic_power_codim requires codimension grading")
    if not is_normalized(group):
        raise ValueError("cyclic_power_codim requires a normalized input")
    bound = group.valid_through
    summands = group.summands
    in_s = [_in_s_codim(s, p) for s in summands]

    out: list[CyclicSummand] = []
    _tensor_summands(summands, p, in_s, bound, out)
    for s, member in zip(summands, in_s):
        if not member:
            continue
        if p * s.degree <= bound:
            out.append(CyclicSummand(p * s.order, p * s.degree, Gamma(s.label)))
        for t in range(p * s.degree + 1, bound + 1):
            out.append(CyclicSummand(p, t, Alpha(s.label, t)))
    return normalize(GradedAbelianGroup(CODIM, tuple(out), bound))


def cyclic_power_dim(group: GradedAbelianGroup, p: int) -> GradedAbelianGroup:
    """Cyclic power in dimension grading; ambient d becomes p*d.

    If the input window covers every dimension 0..d the output is
    authoritative on all of 0..p*d; otherwise the bound carries over
    unchanged (the top valid_through output dimensions are determined by
    the top valid_through input dimensions).
    """
    require_prime(p)
    match group.grading:
        case Dim(ambient=int() as d):
            pass
        case _:
            raise GradingError("cyclic_power_dim requires dimension grading with finite ambient")
    if not is_normalized(group):
        raise ValueError("cyclic_power_dim requires a normalized input")
    summands = group.summands
    in_s = [_in_s_dim(s, p) for s in summands]

    out_bound = p * d if group.valid_through >= d else group.valid_through
    lo = max(0, p * d - out_bound)

    raw: list[CyclicSummand] = []
    _tensor_summands(summands, p, in_s, None, raw)
    for s, member in zip(summands, in_s):
        if not member:
            continue
        raw.append(CyclicSummand(p * s.order, p * s.degree, Gamma(s.label)))
        for j in range(s.degree + 1, p * s.degree):
            raw.append(CyclicSummand(p, j, Alpha(s.label, j)))
    out = [s for s in raw if lo <= s.degree <= p * d]
    return normalize(GradedAbelianGroup(Dim(p * d), tuple(out), out_bound))
