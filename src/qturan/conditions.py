"""Chain conditions and their majorization shortcut.

Given nonnegative parameter vectors a (size t) and b (size s) over a base q,
the derived vectors are c_k = q^(-a_k) - 1 and d_k = q^(-b_k) - 1.  The two
chain conditions decide the sign regime of the normalized Turanian:

* case (a), for s <= t <= s+1:
      e_t(c)/e_s(d) <= e_{t-1}(c)/e_{s-1}(d) <= ... <= e_{t-s}(c),
* case (b), for t <= s: the same chain with c and d exchanged.

Both are evaluated by cross-multiplication so vanishing symmetric
polynomials (possible only when a parameter is 0) never divide; ties count
as satisfying the non-strict chain.  ``chain_case`` is the one place that
decides which of them applies.

A weak-supermajorization witness on a subvector is a sufficient condition
for the corresponding chain; the search is exhaustive over subvectors.  The
rational function R(y) = prod(c_k + y) / prod(d_k + y) is monotone on
(0, infinity) whenever the matching chain holds, and the probe asserts that
direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Sequence

from .qcore import QBase, elementary_symmetric, weak_supermajorizes
from .scalar import (
    DimensionError,
    DomainError,
    FloatScalar,
    QTuranError,
    Scalar,
    as_fraction,
    one_like,
)


@dataclass(frozen=True)
class ChainVerdict:
    applies_case_a: bool
    applies_case_b: bool
    via_majorization: bool
    witness_subvector: tuple[int, ...] | None


class RtsDirection(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    CONSTANT = "constant"
    NON_MONOTONE = "non-monotone"


def derive_cd(a: Sequence, b: Sequence, q: QBase):
    """c_k = q^(-a_k) - 1 and d_k = q^(-b_k) - 1, exact on the half grid.

    a and b must be nonempty and nonnegative."""
    def one_vec(vec):
        if not vec:
            raise DimensionError("parameter vectors a and b must not be empty")
        out = []
        for entry in vec:
            e = as_fraction(entry)
            if not e >= 0:
                raise QTuranError(f"parameter {entry} must be nonnegative")
            out.append(q.q_power(-e) - 1)
        return tuple(out)

    return one_vec(a), one_vec(b)


def _chain(x: Sequence[Scalar], y: Sequence[Scalar]) -> bool:
    """e_n(x)/e_k(y) <= e_(n-1)(x)/e_(k-1)(y) <= ... <= e_(n-k)(x) with
    n = |x| >= k = |y|, cross-multiplied: case (a) with x = c, y = d, and
    case (b) with the roles exchanged."""
    n, k = len(x), len(y)
    e_x, e_y = elementary_symmetric(x), elementary_symmetric(y)
    return all(e_x[n - j] * e_y[k - j - 1] <= e_x[n - j - 1] * e_y[k - j]
               for j in range(k))


def chain_condition_a(c: Sequence[Scalar], d: Sequence[Scalar]) -> bool:
    """The case-(a) chain, cross-multiplied; requires s <= t <= s+1."""
    t, s = len(c), len(d)
    if not s <= t <= s + 1:
        raise DimensionError(f"case (a) needs s <= t <= s+1, got t={t}, s={s}")
    return _chain(c, d)


def chain_condition_b(c: Sequence[Scalar], d: Sequence[Scalar]) -> bool:
    """The case-(b) chain (roles of c and d exchanged); requires t <= s."""
    t, s = len(c), len(d)
    if not t <= s:
        raise DimensionError(f"case (b) needs t <= s, got t={t}, s={s}")
    return _chain(d, c)


def chain_case(c: Sequence[Scalar], d: Sequence[Scalar]) -> str | None:
    """Which chain conditions hold: "a+b", "a", "b", or None for neither.

    A chain counts only where its dimensional hypothesis holds (s <= t <= s+1
    for case (a), t <= s for case (b)).
    """
    t, s = len(c), len(d)
    case_a = s <= t <= s + 1 and chain_condition_a(c, d)
    case_b = t <= s and chain_condition_b(c, d)
    if case_a and case_b:
        return "a+b"
    return "a" if case_a else "b" if case_b else None


def majorization_sufficiency(c: Sequence[Scalar], d: Sequence[Scalar]) -> ChainVerdict:
    """Search subvectors for a weak-supermajorization witness.

    For t >= s, a subvector c' of c with d majorized (weakly, from above) by
    c' forces chain (a); for t <= s, a subvector d' with c majorized by d'
    forces chain (b).  When a witness exists and the chain's dimensional
    hypothesis holds, the implication is asserted.
    """
    t, s = len(c), len(d)
    big, small = (c, d) if t >= s else (d, c)
    witness = None
    if all(v.sign() > 0 for v in (*c, *d)):        # the lemma's hypothesis
        witness = next((idx for idx in combinations(range(len(big)), len(small))
                        if weak_supermajorizes(small, [big[i] for i in idx])), None)
    via = witness is not None

    case = chain_case(c, d)
    case_a, case_b = case in ("a", "a+b"), case in ("b", "a+b")

    if via and t <= s + 1:
        implied = case_a if t >= s else case_b
        if not implied:
            raise QTuranError(
                "majorization witness found but the implied chain fails"
            )
    return ChainVerdict(case_a, case_b, via, witness)


def rts_value(c: Sequence[Scalar], d: Sequence[Scalar], y: Scalar) -> Scalar:
    num = one_like(y)
    for ck in c:
        num = num * (ck + y)
    den = one_like(y)
    for dk in d:
        den = den * (dk + y)
    return num / den


def rts_monotonicity_probe(c: Sequence[Scalar], d: Sequence[Scalar],
                           grid: Sequence[Scalar]) -> RtsDirection:
    """Classify R(y) = prod(c_k+y)/prod(d_k+y) on an increasing positive grid.

    Non-monotone needs a strict local reversal beyond the relative float
    tolerance 10^(6 - digits) (exact values compare directly).  When the
    matching chain condition holds, the direction it predicts is asserted.
    A grid that is not strictly increasing and positive raises DomainError:
    the chains say how R runs on (0, infinity), left to right.
    """
    if len(grid) < 2:
        raise DimensionError("grid needs at least two points")
    if grid[0].sign() <= 0 or any((y1 - y0).sign() <= 0 for y0, y1 in zip(grid, grid[1:])):
        raise DomainError("the probe needs a strictly increasing grid of positive points")
    values = [rts_value(c, d, y) for y in grid]
    ups = downs = 0
    for prev, cur in zip(values, values[1:]):
        diff = cur - prev
        if isinstance(diff, FloatScalar):
            scale = max(abs(prev), abs(cur), 1)
            if abs(diff) <= FloatScalar(10, diff.digits) ** (6 - diff.digits) * scale:
                continue
        s = diff.sign()
        if s > 0:
            ups += 1
        elif s < 0:
            downs += 1
    if ups and downs:
        direction = RtsDirection.NON_MONOTONE
    elif ups:
        direction = RtsDirection.INCREASING
    elif downs:
        direction = RtsDirection.DECREASING
    else:
        direction = RtsDirection.CONSTANT

    case = chain_case(c, d)
    if case in ("a", "a+b"):
        if direction == RtsDirection.DECREASING or direction == RtsDirection.NON_MONOTONE:
            raise QTuranError("chain (a) holds but R is not increasing")
    if case in ("b", "a+b"):
        if direction == RtsDirection.INCREASING or direction == RtsDirection.NON_MONOTONE:
            raise QTuranError("chain (b) holds but R is not decreasing")
    return direction
