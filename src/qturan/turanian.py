"""Generalized Turanians and their sign certificates.

For a parametrized series family F the generalized Turanian is

    Delta(alpha, beta; x) = F(mu+alpha) F(mu+beta) - F(mu) F(mu+alpha+beta),

built here from the Cauchy-product kernel of ``TruncatedSeries`` (exact
certificates use its interval image).  Certificates classify the
power-series coefficients:

* Heine family ``f``: coefficients are exactly rational on the half-power
  grid, the expected verdict is strictly negative for m >= 1.
* Tilde family ``f~ = f / Gamma_q``: the two products carry different Gamma
  prefactors whose ratio rho = Gamma_q(mu+a)Gamma_q(mu+b) /
  (Gamma_q(mu)Gamma_q(mu+a+b)) is the single non-rational constant.  The
  exact certificate compares u_m against rho * v_m where u, v are the two
  product coefficient sequences; rho is exact for integer shifts and
  otherwise enclosed once, through interval enclosures of its four
  q-Pochhammer infinite products with their geometric tail bound, so the
  verdict stays unconditional.  Expected: strictly positive.
* Normalized ``g`` family: prefactor ratios combine exactly through the
  finite Gamma-ratio identity before multiplication; the expected direction
  comes from whichever chain condition holds (``conditions.chain_case``;
  case (a): non-positive, case (b): non-negative, both: zero).  Under a
  non-strict expectation Delta_0 must have the expected sign too.

The three family certificates check only their own hypotheses and choose
the expectation, the normalization and (tilde) the rho enclosure; one
routine, ``_certify``, turns the spec into its report in every family and
mode.  A zero shift gives the identically zero series, and a certificate
needs order >= 1, so a verdict always rests on some coefficient m >= 1.

In exact mode the four shifted series are built exactly to order 0 only
(their exact leading coefficients give Delta_0).  Each series' exact
q-power parameters are enclosed once in ``_Interval``s, nonnegative
dyadic enclosures on Python ints with mantissas of ``_PREC`` bits, and its
term-ratio recurrence runs in that arithmetic to enclose every
coefficient.  The products u, v go through the one Cauchy kernel, whose
``_Interval.dot`` rounds each coefficient once, and every u_m - rho v_m is
formed exactly on the integer mantissas.  Only when a coefficient's
enclosure contains 0, or cannot stay nonnegative, are the exact series
built to the full order, and that coefficient recomputed exactly as an
O(m) dot product; that is how exact zeros are proven.  Verdicts involve no
tolerance.  In float mode (the tilde series with their true 1/Gamma_q
scale) a strict verdict additionally requires every margin to exceed ten
times a propagated rounding envelope, otherwise the verdict is
INCONCLUSIVE.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from math import ceil, gcd, isqrt, log

import mpmath

from . import conditions
from .qcore import QBase, qgamma_ratio
from .series import (
    TruncatedSeries,
    g_series,
    geometric_tail_order,
    heine_f_series,
    heine_f_tilde_series,
    zero_series,
)
from .scalar import (
    DomainError,
    ExactModeError,
    ExactScalar,
    FloatScalar,
    HypothesisError,
    Scalar,
    as_fraction,
    _exact,
    ex,
    rational_text,
)


class Family(Enum):
    HEINE_F = "heine-f"
    HEINE_F_TILDE = "heine-f-tilde"
    G_NORMALIZED = "g"


class SignVerdict(Enum):
    ZERO = "zero"
    ALL_NONNEG = "all-nonneg"
    ALL_NONPOS = "all-nonpos"
    ALL_STRICTLY_POS = "all-strictly-pos"
    ALL_STRICTLY_NEG = "all-strictly-neg"
    MIXED = "mixed"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TuranianSpec:
    """One Turanian point.  The shifts mu, alpha, beta and the entries of a
    and b are exact rationals (int, Fraction or "num/den") in both modes,
    stored as Fractions."""

    family: Family
    mu: Fraction
    alpha: Fraction
    beta: Fraction
    q: QBase
    order: int
    a: tuple = ()
    b: tuple = ()

    def __post_init__(self):
        for name in ("mu", "alpha", "beta"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        for name in ("a", "b"):
            object.__setattr__(self, name, tuple(map(as_fraction, getattr(self, name))))


@dataclass(frozen=True)
class SignReport:
    """Verdict on the signs of the Turanian coefficients Delta_m, m >= 1.

    ``min_margin`` is min over m >= 1 of |Delta_m| for a one-signed verdict
    (None for MIXED and INCONCLUSIVE).  In exact mode it is a certified
    lower bound, not the exact minimum: a coefficient decided by its
    enclosure contributes that enclosure's endpoint nearest zero, formed
    exactly on the integer mantissas and rounded toward zero to a _PREC-bit
    dyadic rational; one decided exactly contributes its exact value (or,
    for the tilde family at half-integer shifts, the bound from the rho
    enclosure).
    ``coeff0`` is computed exactly (tilde: its bound from the rho
    enclosure).

    ``decided_by`` names the path that decided the signs: ``interval``
    (every interval excluded 0), ``interval+exact`` (``exact_fallbacks``
    coefficients were recomputed exactly), ``float`` (float mode) or
    ``degenerate`` (a zero shift, so the series vanishes identically); it
    is None when the rho enclosure leaves a sign undecided (INCONCLUSIVE).  Both
    are deterministic, so exact reports stay byte-stable.
    """

    verdict: SignVerdict
    first_violation: int | None
    min_margin: Scalar | None
    order_checked: int
    coeff0: Scalar | None
    family: str
    mode: str
    normalization: str
    chain_case: str | None = None
    expected: SignVerdict | None = None
    matches_expected: bool | None = None
    decided_by: str | None = None
    exact_fallbacks: int = 0


def verdict_satisfies(observed: SignVerdict, expected: SignVerdict | None) -> bool:
    """Whether an observed verdict fulfills an expected sign direction.

    A degenerate all-zero series satisfies either non-strict direction.
    """
    if expected is None:
        return True
    if expected == SignVerdict.ALL_NONNEG:
        return observed in (SignVerdict.ZERO, SignVerdict.ALL_NONNEG,
                            SignVerdict.ALL_STRICTLY_POS)
    if expected == SignVerdict.ALL_NONPOS:
        return observed in (SignVerdict.ZERO, SignVerdict.ALL_NONPOS,
                            SignVerdict.ALL_STRICTLY_NEG)
    if expected == SignVerdict.ZERO:
        return observed == SignVerdict.ZERO
    return observed == expected


def _shift_series(family: Family, mu, shift, q: QBase, order: int, a=(),
                  b=()) -> TruncatedSeries:
    """The family series F(mu + shift): the one map from a family to its
    series, for the certificates and the pointwise checks alike.  The g
    series carries its Gamma_q prefactor relative to mu.  The exact tilde
    series is its relative form (Heine's); the float one carries its
    1/Gamma_q(mu + shift) scale."""
    if family == Family.G_NORMALIZED:
        return g_series(a, b, mu + shift, q, order, ref_mu=mu)
    if family == Family.HEINE_F_TILDE and not q.is_exact:
        return heine_f_tilde_series(mu + shift, q, order, absolute=True)
    return heine_f_series(mu + shift, q, order)


def _shifted(spec: TuranianSpec, order=None) -> tuple:
    """F(mu+alpha), F(mu+beta), F(mu), F(mu+alpha+beta), to spec.order unless
    another order is given."""
    order = spec.order if order is None else order
    return tuple(_shift_series(spec.family, spec.mu, sh, spec.q, order, spec.a, spec.b)
                 for sh in (spec.alpha, spec.beta, 0, spec.alpha + spec.beta))


def turanian_series(spec: TuranianSpec) -> TruncatedSeries:
    """F(mu+a)F(mu+b) - F(mu)F(mu+a+b), truncated to the requested order.

    Zero shift in either slot gives the identically zero series.  The tilde
    family is float-only here (its exact sign analysis, which must track a
    non-rational prefactor ratio, lives in the certificate).
    """
    if _is_degenerate(spec):
        return zero_series(spec.q, spec.order)
    if spec.family == Family.HEINE_F_TILDE and spec.q.is_exact:
        raise ExactModeError(
            "the tilde Turanian has no exact absolute representation; "
            "use delta_tilde_sign_certificate"
        )
    s_a, s_b, s_0, s_ab = _shifted(spec)
    return s_a * s_b - s_0 * s_ab


# -- classification ----------------------------------------------------------


# Bits of the mantissas of every outward-rounded enclosure in the exact
# certificates.  About 30 digits: the smallest relative margin on the
# acceptance grids is ~4e-3, and a coefficient whose enclosure still contains
# 0 is recomputed exactly.
_PREC = 100


class _Interval:
    """A nonnegative enclosure [lm 2^le, hm 2^he] on Python ints, with the
    arithmetic that the term-ratio recurrence of ``TermRatio`` (*, / and
    1 - x) and the Cauchy kernel of ``TruncatedSeries`` (``dot``) use.

    Every arithmetic result is rounded outward once, to mantissas of at
    most ``prec`` = _PREC bits: * and / round their exact result, and
    ``dot`` sums its exact dyadic products at their smallest exponent
    before rounding, so no common grid is imposed on coefficients that
    decay like q^(n^2/2).  An enclosure that cannot stay nonnegative (1 - x with x reaching past 1, a
    division by an enclosure reaching 0, a negative value) is ``UNBOUNDED``
    (lm = -1), and so is every result it enters.
    """

    __slots__ = ("lm", "le", "hm", "he")
    prec = _PREC
    digits = _PREC * 3 // 10    # decimal digits of the endpoints

    def __init__(self, lm: int, le: int, hm: int, he: int):
        self.lm, self.le, self.hm, self.he = lm, le, hm, he

    @classmethod
    def rounded(cls, lm: int, le: int, hm: int, he: int) -> "_Interval":
        """[lm 2^le, hm 2^he] with lm rounded down and hm rounded up to
        cls.prec bits (toward 0 for a positive lm or a negative hm)."""
        shift = lm.bit_length() - cls.prec
        if shift > 0:
            lm, le = lm >> shift, le + shift
        shift = hm.bit_length() - cls.prec
        if shift > 0:
            hm, he = -(-hm >> shift), he + shift
        return cls(lm, le, hm, he)

    @classmethod
    def of(cls, x: ExactScalar) -> "_Interval":
        """Enclosure of an exact scalar x = a + b sqrt(r) on the grid 2^-k:
        a 2^k and |b| sqrt(r) 2^k are each enclosed within one unit, and k
        grows until the lower end has more than prec + 8 bits, so the
        enclosure is far tighter than x's prec-bit ulp.  Zero gives [0, 0]
        and a negative x UNBOUNDED."""
        an, ad, m = x.n, x.d, x.m
        if m:
            # a = n/d and b = m/d in lowest terms, whose bit lengths set the
            # first k (n/d itself is in lowest terms when m = 0)
            g, h = gcd(an, ad), gcd(m, ad)
            r = x.rad
            bb = ((m // h) ** 2 * r.numerator, (ad // h) ** 2 * r.denominator)
            an, ad = an // g, ad // g
        size = an.bit_length() - ad.bit_length()
        if m:
            size = max(size, (bb[0].bit_length() - bb[1].bit_length()) // 2)
        k = max(cls.prec + 10 - size, 0)
        while True:
            lo, rem = divmod(an << k, ad)
            hi = lo + (rem != 0)
            if m:
                y, rem = divmod(bb[0] << 2 * k, bb[1])
                root = isqrt(y)                 # floor(|b| sqrt(r) 2^k)
                up = root + (rem != 0 or root * root != y)
                lo, hi = (lo + root, hi + up) if m > 0 else (lo - up, hi - root)
            if lo > 0 and lo.bit_length() > cls.prec + 8:
                return cls(lo, -k, hi, -k)
            sign = 1 if lo > 0 else x.sign()
            if sign <= 0:
                return cls(0, 0, 0, 0) if sign == 0 else _Interval.UNBOUNDED
            k += cls.prec + 10 - lo.bit_length() if lo > 0 else k + cls.prec

    @staticmethod
    def exact(man: int, exp: int) -> ExactScalar:
        """The dyadic rational man 2^exp."""
        if exp >= 0:
            return _exact(man << exp, 0, 1, None)
        # lowest terms: cancel the factors 2 that man shares with 2^-exp
        t = min((man & -man).bit_length() - 1, -exp) if man else -exp
        return _exact(man >> t, 0, 1 << (-exp - t), None)

    def __rsub__(self, other: int) -> "_Interval":
        # [other - hm 2^he, other - lm 2^le], exact at exponent min(e, 0)
        if self.lm < 0:
            return self
        lo = (other << -self.he) - self.hm if self.he < 0 else other - (self.hm << self.he)
        hi = (other << -self.le) - self.lm if self.le < 0 else other - (self.lm << self.le)
        if lo < 0:
            return _Interval.UNBOUNDED
        return self.rounded(lo, min(self.he, 0), hi, min(self.le, 0))

    def __mul__(self, other: "_Interval") -> "_Interval":
        if self.lm < 0 or other.lm < 0:
            return _Interval.UNBOUNDED
        return self.rounded(self.lm * other.lm, self.le + other.le,
                            self.hm * other.hm, self.he + other.he)

    def __truediv__(self, other: "_Interval") -> "_Interval":
        if self.lm < 0 or other.lm <= 0:
            return _Interval.UNBOUNDED
        # shift the dividends so that each quotient keeps >= prec bits; a
        # dividend already that much longer than its divisor needs no shift
        k = max(self.prec + 1 + other.hm.bit_length() - self.lm.bit_length(), 0)
        lo = (self.lm << k) // other.hm
        j = max(self.prec + 1 + other.lm.bit_length() - self.hm.bit_length(), 0)
        hi = -(-(self.hm << j) // other.lm)
        return self.rounded(lo, self.le - other.he - k, hi, self.he - other.le - j)

    @staticmethod
    def dot(xs, ys) -> "_Interval":
        """Enclosure of the sum of x*y over the pairs: the exact sums of the
        endpoint products, each at its smallest exponent, rounded once."""
        lo, hi = [], []
        for x, y in zip(xs, ys):
            if x.lm < 0 or y.lm < 0:
                return _Interval.UNBOUNDED
            lo.append((x.lm * y.lm, x.le + y.le))
            hi.append((x.hm * y.hm, x.he + y.he))
        le, he = min(e for _, e in lo), min(e for _, e in hi)
        return _Interval.rounded(sum(m << (e - le) for m, e in lo), le,
                                 sum(m << (e - he) for m, e in hi), he)

    def bound_minus(self, rho: "_Interval", v: "_Interval") -> ExactScalar | None:
        """The endpoint nearest 0 of the enclosure of self - rho v, formed
        exactly on the mantissas and rounded toward 0 to _PREC bits; None
        when that enclosure contains 0 or an operand is unbounded."""
        if self.lm < 0 or rho.lm < 0 or v.lm < 0:
            return None
        ends = []
        for um, ue, pm, pe in ((self.lm, self.le, rho.hm * v.hm, rho.he + v.he),
                               (self.hm, self.he, rho.lm * v.lm, rho.le + v.le)):
            e = min(ue, pe)
            ends += [(um << (ue - e)) - (pm << (pe - e)), e]
        d = _Interval.rounded(*ends)
        if d.lm > 0:
            return _Interval.exact(d.lm, d.le)
        if d.hm < 0:
            return _Interval.exact(d.hm, d.he)
        return None


_Interval.UNBOUNDED = _Interval(-1, 0, -1, 0)


def _exact_bound(series, rho_lo, rho_hi, m: int):
    """Exact bound on u_m - rho v_m with its sign, or None if undecided.

    rho lies in [rho_lo, rho_hi] and v_m >= 0 (both products have positive
    coefficients), so u_m - rho v_m lies in [u_m - rho_hi v_m, u_m - rho_lo
    v_m].  The bound is that interval's endpoint nearest zero; None when the
    interval contains 0 without being the point 0.
    """
    s_a, s_b, s_0, s_ab = series
    u = s_a.product_coefficient(s_b, m)
    v = s_0.product_coefficient(s_ab, m)
    lo, hi = u - rho_hi * v, u - rho_lo * v
    if lo.sign() > 0 or (lo.is_zero() and hi.is_zero()):
        return lo
    if hi.sign() < 0:
        return hi
    return None


def _exact_mode_bounds(heads, enclosures, build, rho):
    """Certified bounds on every Delta_m = u_m - rho v_m of four shifted series.

    The series are (F(mu+alpha), F(mu+beta), F(mu), F(mu+alpha+beta)), so
    u = F(mu+alpha)F(mu+beta) and v = F(mu)F(mu+alpha+beta).  ``heads``
    holds them exactly to order 0 at least, ``enclosures`` as interval
    series (of _Interval) to the full order, and ``build()`` returns them
    exactly to the full order.  ``rho`` is an exact enclosure (rho_lo,
    rho_hi) of the prefactor ratio ((1, 1) for the Heine and g families).
    Both products are formed once in intervals, every u_m - rho v_m, m >= 1,
    is enclosed, and the coefficients whose enclosure contains 0 or is
    unbounded are recomputed exactly, calling ``build`` at the first of
    them.  Each bound has the sign of its coefficient and at most its
    magnitude: the endpoint of _Interval.bound_minus (a dyadic rational) or
    the exact bound of _exact_bound.  Returns (coeff0 bound, bounds for
    m >= 1, exact fallbacks), or None when the rho enclosure leaves a sign
    undecided.
    """
    rho_lo, rho_hi = rho
    head = _exact_bound(heads, rho_lo, rho_hi, 0)
    if head is None:
        return None
    lo, hi = _Interval.of(rho_lo), _Interval.of(rho_hi)
    rho = _Interval(lo.lm, lo.le, hi.hm, hi.he)
    u = (enclosures[0] * enclosures[1]).coeffs
    v = (enclosures[2] * enclosures[3]).coeffs
    exact, bounds, fallbacks = None, [], 0
    for m in range(1, len(u)):
        bound = u[m].bound_minus(rho, v[m])
        if bound is None:
            fallbacks += 1
            if exact is None:
                exact = build()
            bound = _exact_bound(exact, rho_lo, rho_hi, m)
            if bound is None:
                return None
        bounds.append(bound)
    return head, bounds, fallbacks


def _classify_exact(bounds):
    """Verdict, first violation and margin from the bounds on Delta_1..Delta_M.

    Each bound has its coefficient's sign and at most its magnitude, so the
    margin is a lower bound on min |Delta_m| (the minimum itself when the
    bounds are the exact coefficients).
    """
    signs = [b.sign() for b in bounds]
    if all(s == 0 for s in signs):
        return SignVerdict.ZERO, None, bounds[0] if bounds else None
    if 1 in signs and -1 in signs:
        first_sign = next(s for s in signs if s != 0)
        return SignVerdict.MIXED, signs.index(-first_sign) + 1, None
    if 1 in signs:
        verdict = (SignVerdict.ALL_STRICTLY_POS if all(s > 0 for s in signs)
                   else SignVerdict.ALL_NONNEG)
        margin = min(bounds)
    else:
        verdict = (SignVerdict.ALL_STRICTLY_NEG if all(s < 0 for s in signs)
                   else SignVerdict.ALL_NONPOS)
        margin = min(-b for b in bounds)
    return verdict, None, margin


def _float_error_bounds(scale_coeffs, digits):
    # crude forward-error envelope: each coefficient is a convolution of
    # positive terms, so scale * (terms) * ulp bounds the accumulated error
    eps = mpmath.mpf(10) ** (2 - digits)
    return [abs(s.val) * eps * 4 * (m + 2) for m, s in enumerate(scale_coeffs)]


def _classify_float(tail, bounds):
    """_classify_exact on float coefficients, INCONCLUSIVE when a nonzero
    coefficient lies within ten error bounds of 0."""
    for c, bnd in zip(tail, bounds):
        if c.val != 0 and abs(c.val) <= 10 * bnd:
            return SignVerdict.INCONCLUSIVE, None, None
    return _classify_exact(tail)


# The signs of Delta_0 that a non-strict expectation allows; a strict one
# says nothing about m = 0.
_HEAD_SIGNS = {SignVerdict.ALL_NONNEG: (0, 1), SignVerdict.ALL_NONPOS: (-1, 0),
               SignVerdict.ZERO: (0,)}


def _certify(spec: TuranianSpec, expected, norm, rho=(ex(1), ex(1)),
             chain_case=None) -> SignReport:
    """The SignReport of the Turanian of spec, in every family and mode.

    A zero shift makes the Turanian vanish identically.  In exact mode the
    four shifted series are built exactly to order 0 only; their term
    ratios, run in _Interval arithmetic, enclose them to the full order, and
    exact series to the full order are built only for a coefficient whose
    interval contains 0 (see _exact_mode_bounds for ``rho``).  In
    float mode the coefficients are classified against a rounding envelope.
    """
    if spec.order < 1:
        raise HypothesisError(
            f"a sign certificate needs order >= 1 (coefficients m >= 1), "
            f"got {spec.order}"
        )
    verdict, viol, margin, coeff0 = SignVerdict.INCONCLUSIVE, None, None, None
    decided_by, fallbacks = None, 0
    if _is_degenerate(spec):
        verdict, decided_by = SignVerdict.ZERO, "degenerate"
        margin = coeff0 = spec.q.zero
    elif spec.q.is_exact:
        heads = _shifted(spec, 0)
        enclosures = tuple(h.ratio.series(spec.order, lift=_Interval.of) for h in heads)
        found = _exact_mode_bounds(heads, enclosures, lambda: _shifted(spec), rho)
        if found is not None:
            coeff0, bounds, fallbacks = found
            verdict, viol, margin = _classify_exact(bounds)
            decided_by = "interval+exact" if fallbacks else "interval"
    else:
        s_a, s_b, s_0, s_ab = _shifted(spec)
        u, v = s_a * s_b, s_0 * s_ab
        delta = u - v
        bounds = _float_error_bounds((u + v).coeffs[1:], spec.q.digits)
        verdict, viol, margin = _classify_float(delta.coeffs[1:], bounds)
        coeff0, decided_by = delta.coeffs[0], "float"
    matches = decided_by == "degenerate" or (
        decided_by is not None and verdict_satisfies(verdict, expected)
        and coeff0.sign() in _HEAD_SIGNS.get(expected, (-1, 0, 1)))
    return SignReport(verdict, viol, margin, spec.order, coeff0, spec.family.value,
                      spec.q.mode, norm, chain_case=chain_case, expected=expected,
                      matches_expected=matches, decided_by=decided_by,
                      exact_fallbacks=fallbacks)


def _positive_hypotheses(spec: TuranianSpec):
    mu, alpha, beta = spec.mu, spec.alpha, spec.beta
    if not (mu > 0 and alpha > 0 and beta > 0):
        raise HypothesisError(
            f"mu, alpha, beta must be positive, got ({mu}, {alpha}, {beta})"
        )
    return mu, alpha, beta


def _is_degenerate(spec: TuranianSpec) -> bool:
    return spec.alpha == 0 or spec.beta == 0


def delta_sign_certificate(spec: TuranianSpec) -> SignReport:
    """Sign certificate for the Heine-f Turanian (expected strictly negative)."""
    if spec.family != Family.HEINE_F:
        raise ValueError("delta_sign_certificate works on the heine-f family")
    if not _is_degenerate(spec):
        _positive_hypotheses(spec)
    return _certify(spec, SignVerdict.ALL_STRICTLY_NEG, "x^m coefficients")


# -- tilde family: interval enclosure of the prefactor ratio -----------------


class _GuardedInterval(_Interval):
    """_Interval with 32 guard bits for the (a; q)_inf products, which round
    about N + 1/(1-q)^2 times over N factors (at _PREC bits, a relative
    width of 2^-83 at q = 99/100 instead of their 2^-_PREC tail)."""

    __slots__ = ()
    prec = _PREC + 32


# The most factors an (a; q)_inf enclosure may take.  N grows like 1/(1-q):
# about 7400 at q = 99/100, 76200 at q = 999/1000, the cap near q = 0.99941.
_MAX_PRODUCT_TERMS = 1 << 17


def _qpoch_inf_interval(a: _Interval, q: _Interval, gap: _Interval,
                        nterms: int) -> _Interval:
    """Enclosure of (a; q)_infty, 0 < a < 1, given a, q and gap = 1 - q: the
    product of 1 - a q^k over k < N times the tail factor in
    [1 - a q^N / (1-q), 1] (Gasper & Rahman, ch. 1), N >= nterms the first
    count whose tail deficit is below 2^-_PREC."""
    # 2^stop <= (1-q) 2^-_PREC, so a q^N below 2^stop bounds the deficit
    stop = gap.lm.bit_length() - 1 + gap.le - _PREC
    prod, t, n = _GuardedInterval(1, 0, 1, 0), a, 0
    while n < nterms or t.hm.bit_length() + t.he > stop:
        prod, t, n = prod * (1 - t), t * q, n + 1
    tail = 1 - t / gap
    return prod * _GuardedInterval(tail.lm, tail.le, 1, 0)


def _rho_interval(mu, alpha, beta, q: QBase, nterms: int):
    """Exact bounds (rho_lo, rho_hi) on Gamma_q(mu+a)Gamma_q(mu+b) /
    (Gamma_q(mu)Gamma_q(mu+a+b)) for positive mu, alpha, beta in exact mode.

    Exact (zero-width) for integer alpha, beta: rho is the finite ratio
    Gamma_q(mu+a)/Gamma_q(mu) over Gamma_q(mu+b+a)/Gamma_q(mu+b).
    Otherwise Gamma_q(x) = (q;q)_inf (1-q)^(1-x) / (q^x;q)_inf makes rho
    (q^mu;q)_inf (q^(mu+a+b);q)_inf / ((q^(mu+a);q)_inf (q^(mu+b);q)_inf),
    whose interval enclosure (at least nterms factors per product) gives
    the bounds.  A q whose products would take more than _MAX_PRODUCT_TERMS
    factors raises DomainError before any is formed.
    """
    if alpha.denominator == 1 and beta.denominator == 1:
        rho = qgamma_ratio(mu, int(alpha), q) / qgamma_ratio(mu + beta, int(alpha), q)
        return rho, rho
    # float estimate, from above as -ln q >= 1 - q, of the first N with
    # q^(mu+N) / (1-q) < 2^-_PREC
    gap = 1 - q.q_frac
    bits = _PREC * log(2) - log(gap.numerator) + log(gap.denominator)
    needed = max(ceil(Fraction(bits) / gap - mu), 0)
    if needed > _MAX_PRODUCT_TERMS:
        raise DomainError(
            f"the enclosure of the Gamma_q ratio at q = {rational_text(q.q_frac)} needs "
            f"N = {needed} infinite-product terms (at most {_MAX_PRODUCT_TERMS} are "
            f"taken); certify this point in float mode (--mode float)")
    qq = _GuardedInterval.of(q.q)
    n1, n2, d1, d2 = (_qpoch_inf_interval(_GuardedInterval.of(q.q_power(mu + s)), qq,
                                          1 - qq, nterms)
                      for s in (0, alpha + beta, alpha, beta))
    rho = n1 * n2 / (d1 * d2)
    return _Interval.exact(rho.lm, rho.le), _Interval.exact(rho.hm, rho.he)


def delta_tilde_sign_certificate(spec: TuranianSpec) -> SignReport:
    """Sign certificate for the tilde Turanian (expected strictly positive).

    Exact mode reports margins for the coefficients rescaled by the positive
    constant Gamma_q(mu+alpha) Gamma_q(mu+beta): the m-th rescaled
    coefficient is u_m - rho v_m, certified through one enclosure of rho
    (_rho_interval: exact at integer shifts, an interval enclosure of its
    infinite products otherwise), so the verdict carries no tolerance.
    """
    if spec.family != Family.HEINE_F_TILDE:
        raise ValueError("delta_tilde_sign_certificate works on the tilde family")
    rho = (ex(1), ex(1))
    if not _is_degenerate(spec):
        mu, alpha, beta = _positive_hypotheses(spec)
        if spec.q.is_exact:
            rho = _rho_interval(mu, alpha, beta, spec.q, 0)
    norm = ("scaled by Gamma_q(mu+alpha)*Gamma_q(mu+beta); x^m basis" if spec.q.is_exact
            else "absolute x^m coefficients")
    return _certify(spec, SignVerdict.ALL_STRICTLY_POS, norm, rho)


# The sign direction each chain case predicts for the g Turanian.
_CASE_EXPECTED = {"a+b": SignVerdict.ZERO, "a": SignVerdict.ALL_NONPOS,
                  "b": SignVerdict.ALL_NONNEG}


def gamma_sign_certificate(spec: TuranianSpec, *,
                           require_theorem: bool = True) -> SignReport:
    """Sign certificate for the normalized-g Turanian.

    The expected direction is decided by the chain conditions on the derived
    vectors: case (b) predicts non-negative coefficients, case (a)
    non-positive; both holding forces the zero series.  In both modes alpha
    and beta must be nonnegative integers (the g series carries its Gamma_q
    prefactor relative to mu), else HypothesisError.  The coefficientwise
    claim needs alpha <= beta + 1; with ``require_theorem`` a violated
    hypothesis (or no applicable chain) raises instead of returning an
    expectation-free report.
    """
    if spec.family != Family.G_NORMALIZED:
        raise ValueError("gamma_sign_certificate works on the g family")
    if not spec.a or not spec.b:
        raise HypothesisError("the g family needs parameter vectors a and b")
    mu, alpha, beta = spec.mu, spec.alpha, spec.beta
    if alpha.denominator != 1 or alpha < 0:
        raise HypothesisError(f"alpha must be a nonnegative integer, got {alpha}")
    if beta.denominator != 1 or beta < 0:
        raise HypothesisError(f"g certificates need integer beta >= 0, got {beta}")
    if not mu >= 0:
        raise HypothesisError(f"mu must be nonnegative, got {mu}")

    chain_case = conditions.chain_case(*conditions.derive_cd(spec.a, spec.b, spec.q))
    if chain_case is None and require_theorem:
        raise HypothesisError("neither chain condition holds; no sign claim applies")
    expected = _CASE_EXPECTED.get(chain_case)
    if expected is not None and not alpha <= beta + 1:
        if require_theorem:
            raise HypothesisError(
                f"coefficientwise claim needs alpha <= beta+1, got "
                f"alpha={alpha}, beta={beta}"
            )
        expected = None
    return _certify(spec, expected,
                    "relative to (Gamma_q(a+mu)/Gamma_q(b+mu))^2; x^m basis",
                    chain_case=chain_case)


def sign_certificate(spec: TuranianSpec, **kwargs) -> SignReport:
    """Dispatch to the family's certificate."""
    if spec.family == Family.HEINE_F:
        return delta_sign_certificate(spec)
    if spec.family == Family.HEINE_F_TILDE:
        return delta_tilde_sign_certificate(spec)
    return gamma_sign_certificate(spec, **kwargs)


# -- pointwise inequality and grid checks ------------------------------------


def _auto_order(family: Family, x_abs, q: QBase, a=(), b=()):
    entire = family == Family.G_NORMALIZED and len(a) <= len(b)
    if entire:
        return 100
    tol = mpmath.mpf(10) ** (6 - q.digits)
    return geometric_tail_order(x_abs, tol, minimum=100)


def turan_point_inequality(family: Family, mu, x, q: QBase, direction: str, *,
                           order: int | None = None, a=(), b=()):
    """Check F(mu+1)^2 against F(mu)F(mu+2) at the point x (float mode).

    ``direction='direct'`` asserts F(mu+1)^2 >= F(mu)F(mu+2);
    ``direction='inverse'`` the reverse.  Returns (holds, margin).
    """
    if q.is_exact:
        raise ExactModeError("point inequalities evaluate in float mode")
    if direction not in ("direct", "inverse"):
        raise ValueError("direction must be 'direct' or 'inverse'")
    x = q.scalar(x)
    if family != Family.G_NORMALIZED or len(a) == len(b) + 1:
        if not abs(x) < FloatScalar(1, q.digits):
            raise DomainError("evaluation point outside |x| < 1")
    if order is None:
        order = _auto_order(family, abs(x), q, a, b)
    vals = [_shift_series(family, mu, shift, q, order, a, b).eval(x)
            for shift in (0, 1, 2)]
    lhs = vals[1] * vals[1]
    rhs = vals[0] * vals[2]
    margin = (lhs - rhs) if direction == "direct" else (rhs - lhs)
    return margin.sign() >= 0, margin


def logconcavity_grid_check(family: Family, mu_grid, x, q: QBase, *,
                            order: int | None = None):
    """Discrete midpoint log-convexity/concavity scan over a uniform mu grid.

    Heine-f is checked for log-convexity (f(mu_i) f(mu_{i+2}) >=
    f(mu_{i+1})^2), the tilde family for log-concavity (reverse direction,
    with the true 1/Gamma_q scale applied).  Returns (ok, margins).
    """
    if q.is_exact:
        raise ExactModeError("grid checks evaluate in float mode")
    if family not in (Family.HEINE_F, Family.HEINE_F_TILDE):
        raise ValueError("log-concavity scan supports the Heine families")
    x = q.scalar(x)
    if not (FloatScalar(0, q.digits) < x and x < FloatScalar(1, q.digits)):
        raise DomainError("the scan needs 0 < x < 1")
    if order is None:
        order = _auto_order(family, abs(x), q)
    values = [_shift_series(family, m, 0, q, order).eval(x) for m in mu_grid]
    margins = []
    for i in range(len(values) - 2):
        outer = values[i] * values[i + 2]
        mid = values[i + 1] * values[i + 1]
        margins.append(outer - mid if family == Family.HEINE_F else mid - outer)
    return all(m.sign() >= 0 for m in margins), margins


def integer_shift_reduction_check(spec: TuranianSpec, alpha_max: int):
    """Confirm the alpha = 1 verdict propagates to integer alpha up to alpha_max.

    For the g family the coefficientwise claim is only tested within
    alpha <= beta + 1.  Returns (consistent, reports by alpha).
    """
    reports = {}
    base = None
    for a_val in range(1, alpha_max + 1):
        if spec.family == Family.G_NORMALIZED and not a_val <= spec.beta + 1:
            break
        cur = replace(spec, alpha=a_val)
        rep = sign_certificate(cur)
        reports[a_val] = rep
        if base is None:
            base = rep
    consistent = all(
        verdict_satisfies(r.verdict, base.expected) if base.expected
        else r.verdict == base.verdict
        for r in reports.values()
    )
    return consistent, reports
