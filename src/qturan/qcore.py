"""Elementary q-objects.

The base q lives in (0,1) and is carried through its half power p = sqrt(q),
so that half-integer powers of q are integer powers of p.  In exact mode p is
either rational (when q is a perfect rational square) or the formal square
root of q inside the quadratic field Q(sqrt(q)); either way every value
q^(k/2) with integer k is exactly representable and exactly comparable.

This module provides the q-shifted factorial (finite and infinite), the
q-Gamma function and its finite ratio, the q-exponential, elementary
symmetric polynomials, weak supermajorization, and the classical Pochhammer
symbol.  Infinite products are float-mode only and come with an explicit
geometric tail bound.  A finite Gamma ratio Gamma_q(x+k)/Gamma_q(x) is the
finite product of :func:`qgamma_ratio` in either mode: the relative
prefactor of the g family and the tilde family's rho at integer shifts are
built from it, so exact mode never touches an infinite product.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import mpmath
from mpmath.libmp import fone, fzero, mpf_mul, mpf_sub, round_nearest

from .scalar import (
    DEFAULT_DIGITS,
    DomainError,
    ExactModeError,
    ExactScalar,
    FloatScalar,
    HypothesisError,
    DimensionError,
    OffGridError,
    PoleError,
    Scalar,
    _float,
    _prec,
    as_fraction,
    ex,
    one_like,
)


class QBase:
    """The base q in (0,1), held through its half power p = sqrt(q).

    Construct with :meth:`exact` (rational q, or rational p to force a
    rational half power) or :meth:`floating`.  ``qpow(k)`` returns p**k,
    i.e. q**(k/2); ``q_power(e)`` returns q**e and, in exact mode, insists
    that 2e is an integer so the result stays on the half-power grid.
    A float base holds (q; q)_infty at the default tolerance in ``qq_inf``
    once :meth:`held_qq_inf` has formed it.
    """

    __slots__ = ("mode", "digits", "q", "p", "q_frac", "p_frac", "qq_inf")

    def __init__(self, *, mode, q, p, q_frac=None, p_frac=None, digits=DEFAULT_DIGITS):
        self.mode = mode
        self.q = q
        self.p = p
        self.q_frac = q_frac
        self.p_frac = p_frac
        self.digits = digits
        self.qq_inf = None

    @classmethod
    def exact(cls, q=None, p=None) -> "QBase":
        if (q is None) == (p is None):
            raise ValueError("give exactly one of q or p")
        if p is not None:
            p_frac = as_fraction(p)
            if not 0 < p_frac < 1:
                raise DomainError(f"p={p_frac} not in (0,1)")
            q_frac = p_frac * p_frac
            return cls(mode="exact", q=ex(q_frac), p=ex(p_frac),
                       q_frac=q_frac, p_frac=p_frac)
        q_frac = as_fraction(q)
        if not 0 < q_frac < 1:
            raise DomainError(f"q={q_frac} not in (0,1)")
        p_scalar = ExactScalar.sqrt_of(q_frac)
        p_frac = p_scalar.a if p_scalar.is_rational() else None
        return cls(mode="exact", q=ex(q_frac), p=p_scalar,
                   q_frac=q_frac, p_frac=p_frac)

    @classmethod
    def floating(cls, q, digits: int = DEFAULT_DIGITS) -> "QBase":
        qs = q if isinstance(q, FloatScalar) else FloatScalar(q, digits)
        if not (0 < qs.val < 1):
            raise DomainError(f"q={qs.val} not in (0,1)")
        return cls(mode="float", q=qs, p=qs.sqrt(), digits=digits)

    def held_qq_inf(self) -> Scalar:
        """(q; q)_infty at the default tolerance (float mode), formed by the
        first call and held as ``qq_inf``: Gamma_q and the Jackson q-Bessel
        functions on one base share it."""
        if self.qq_inf is None:
            self.qq_inf = qpochhammer_infinite(self.q, self)
        return self.qq_inf

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    def scalar(self, x) -> Scalar:
        """Wrap a number in this base's backend."""
        if isinstance(x, (ExactScalar, FloatScalar)):
            return x
        if self.is_exact:
            return ex(x)
        return FloatScalar(x, self.digits)

    @property
    def one(self) -> Scalar:
        return self.scalar(1)

    @property
    def zero(self) -> Scalar:
        return self.scalar(0)

    def qpow(self, u_half: int) -> Scalar:
        """p**u_half = q**(u_half/2), exact in exact mode."""
        if not isinstance(u_half, int):
            raise TypeError("qpow takes an integer number of half steps")
        if self.is_exact:
            if self.p_frac is not None:
                return ex(self.p_frac ** u_half)
            k, r = divmod(u_half, 2)
            whole = self.q_frac ** k
            if r == 0:
                return ex(whole)
            return ExactScalar(Fraction(0), whole, self.q_frac)
        return self.p ** u_half

    def q_power(self, exponent) -> Scalar:
        """q**exponent; exact mode requires exponent on the half-integer grid."""
        if self.is_exact:
            e = as_fraction(exponent) if not isinstance(exponent, Fraction) else exponent
            twice = 2 * e
            if twice.denominator != 1:
                raise OffGridError(
                    f"exponent {e} is off the half-integer grid; "
                    "exact mode supports q**(k/2) only"
                )
            return self.qpow(int(twice))
        if isinstance(exponent, Fraction):
            exponent = FloatScalar(exponent, self.digits)
        return self.q ** exponent

    def __repr__(self):
        if self.is_exact:
            return f"QBase.exact(q={self.q_frac})"
        return f"QBase.floating(q={mpmath.nstr(self.q.val, 12)}, digits={self.digits})"


def shifted_factorial(a: Scalar, ratio: Scalar, n: int) -> Scalar:
    """prod_{k=0}^{n-1} (1 - a * ratio**k) for an arbitrary ratio."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = one_like(ratio)
    t = a
    for _ in range(n):
        result = result * (1 - t)
        t = t * ratio
    return result


def qpochhammer_finite(a, q: QBase, n: int) -> Scalar:
    """The q-shifted factorial (a; q)_n = prod_{k<n} (1 - a q^k).

    Total on valid scalars; (a; q)_0 = 1 for any a.
    """
    return shifted_factorial(q.scalar(a), q.q, n)


def _infinite_tail_terms(abs_a, q: QBase, rel_tol) -> int:
    """Smallest N with |a| q^N / ((1-q)(1-|a| q^N)) <= rel_tol/2.

    The left side bounds |log prod_{k>=N} (1 - a q^k)| through the geometric
    tail sum_{k>=N} |a| q^k / (1 - |a| q^k).
    """
    with mpmath.workdps(q.digits):
        qa = q.q.val
        target = mpmath.mpf(rel_tol) / 2
        if abs_a == 0:
            return 0
        # require g = |a| q^N <= target(1-q)/(1 + target(1-q))
        bound = target * (1 - qa) / (1 + target * (1 - qa))
        n = mpmath.log(bound / abs_a) / mpmath.log(qa)
        n = int(mpmath.ceil(n))
    return max(n, 0)


def qpochhammer_infinite(a, q: QBase, rel_tol=None) -> Scalar:
    """(a; q)_infty within a relative tolerance (float mode only).

    Default rel_tol is 10**(8 - digits), leaving an eight-digit guard under
    the working precision.  Returns exact 0 when some factor 1 - a q^k
    vanishes.
    """
    if q.is_exact:
        raise ExactModeError("(a; q)_infty is not exact; use a float QBase")
    a = q.scalar(a)
    with mpmath.workdps(q.digits):
        if rel_tol is None:
            rel_tol = mpmath.mpf(10) ** (8 - q.digits)
        nterms = _infinite_tail_terms(abs(a.val), q, rel_tol)
    # the loop on raw libmp tuples: the bits of the same loop in mpmath's
    # context arithmetic under workdps(q.digits)
    prec = _prec(q.digits)
    result, t, qv = fone, a.val._mpf_, q.q.val._mpf_
    for _ in range(nterms):
        factor = mpf_sub(fone, t, prec, round_nearest)
        if factor == fzero:
            return FloatScalar(0, q.digits)
        result = mpf_mul(result, factor, prec, round_nearest)
        t = mpf_mul(t, qv, prec, round_nearest)
    return _float(result, q.digits)


def qgamma(z, q: QBase, rel_tol=None) -> Scalar:
    """Gamma_q(z) = (1-q)^(1-z) (q; q)_infty / (q^z; q)_infty (float mode).

    At the default tolerance (q; q)_infty is the base's
    :meth:`QBase.held_qq_inf`; an explicit ``rel_tol`` forms its own.  Raises
    PoleError at z in {0, -1, -2, ...}.
    """
    if q.is_exact:
        raise ExactModeError(
            "Gamma_q is transcendental; exact mode must use qgamma_ratio"
        )
    if isinstance(z, Fraction):
        if z.denominator == 1 and z <= 0:
            raise PoleError(f"Gamma_q pole at z={z}")
        z = FloatScalar(z, q.digits)
    else:
        z = q.scalar(z)
        if z.val <= 0 and z.val == int(z.val):
            raise PoleError(f"Gamma_q pole at z={z.val}")
    if rel_tol is not None:
        num = qpochhammer_infinite(q.q, q, rel_tol)
    else:
        num = q.held_qq_inf()
    den = qpochhammer_infinite(q.q ** z, q, rel_tol)
    one_minus_q = 1 - q.q
    return (one_minus_q ** (1 - z)) * num / den


def qgamma_ratio(x, k: int, q: QBase) -> Scalar:
    """Gamma_q(x+k) / Gamma_q(x) = (q^x; q)_k / (1-q)^k for integer k >= 0.

    This is the only Gamma access the exact backend is allowed: it is a
    finite product, exact whenever q^x lies on the half-power grid.
    """
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    if k == 0:
        return q.one
    if isinstance(x, Fraction) or isinstance(x, int):
        xf = as_fraction(x)
        if xf.denominator == 1 and xf <= 0:
            raise PoleError(f"Gamma_q pole at x={xf}")
    qx = q.q_power(x)
    num = qpochhammer_finite(qx, q, k)
    return num / ((1 - q.q) ** k)


def q_exponential(z, q: QBase, order: int) -> Scalar:
    """Truncated q-exponential sum_{k<=order} z^k / (q; q)_k, valid for |z| < 1:
    the series of the term ratio 1 / (1 - q^k), evaluated at z (its tail
    note refuses |z| >= 1 with DomainError)."""
    from .series import TermRatio       # series imports this module
    return TermRatio(q.one, (), (), q).series(order).eval(q.scalar(z))


def elementary_symmetric(values: Sequence[Scalar]) -> list[Scalar]:
    """e_0 .. e_r of the given entries, by the stable one-pass recurrence.

    e_0 = 1 and e_k = sum of all k-fold products of distinct entries; the
    accumulation inserts one entry at a time (no subset enumeration).
    """
    values = list(values)
    if not values:
        return [ex(1)]
    one = one_like(values[0])
    zero = one - one
    e = [one] + [zero] * len(values)
    for i, v in enumerate(values):
        for j in range(min(i + 1, len(values)), 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e


def weak_supermajorizes(d: Sequence[Scalar], c: Sequence[Scalar]) -> bool:
    """True iff ascending partial sums of c are bounded by those of d.

    Entries must be positive and the vectors equally sized and nonempty.
    """
    if len(d) != len(c):
        raise DimensionError(f"sizes differ: |d|={len(d)}, |c|={len(c)}")
    if not c:
        raise DimensionError("weak supermajorization needs nonempty vectors")
    for v in list(d) + list(c):
        if not v.sign() > 0:
            raise HypothesisError("weak supermajorization needs positive entries")
    ds = sorted(d)
    cs = sorted(c)
    sum_c = cs[0] - cs[0]
    sum_d = sum_c
    for ci, di in zip(cs, ds):
        sum_c = sum_c + ci
        sum_d = sum_d + di
        if not sum_c <= sum_d:
            return False
    return True


def pochhammer_classical(mu, n: int) -> Scalar:
    """The rising factorial (mu)_n = mu (mu+1) ... (mu+n-1); 1 when n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = mu if isinstance(mu, (ExactScalar, FloatScalar)) else ex(mu)
    result = one_like(m)
    for k in range(n):
        result = result * (m + k)
    return result
