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
  product coefficient sequences; rho is exact when alpha or beta is an
  integer and otherwise enclosed once, through interval enclosures of its
  four q-Pochhammer infinite products with their geometric tail bound, so
  the verdict stays unconditional.  Expected: strictly positive.
* Normalized ``g`` family: prefactor ratios combine exactly through the
  finite Gamma-ratio identity before multiplication; the expected direction
  comes from whichever chain condition holds (``conditions.chain_case``;
  case (a): non-positive, case (b): non-negative, both: zero).  Under a
  non-strict expectation Delta_0 must have the expected sign too.

The three family certificates check only their own hypotheses and choose
the expectation, the normalization and (tilde) the rho enclosure; one
routine, ``_certify``, turns the spec into its report in every family and
mode.  A zero shift gives the identically zero series, and so does a g
point with a = b as multisets, whose shifted series are all one series.
A certificate needs order >= 1, so a verdict always rests on some
coefficient m >= 1.

In exact mode the four shifted series are built exactly to order 0 only
(their exact leading coefficients give Delta_0).  Each series' exact
q-power parameters are enclosed once as nonnegative dyadic enclosures
[lo 2^e, hi 2^e], integer triples (lo, hi, e) with mantissas of ``_PREC``
bits and one shared exponent, and its term-ratio recurrence runs on them,
with the arithmetic of ``_Interval`` passed as ``arith``, to enclose every
coefficient; the four recurrences share one chain of enclosures of q^n and
1 - q^n (``TermRatio.series_of``).  The products u, v go through the one
Cauchy kernel, where ``_Interval.convolve`` makes each one big-integer
multiplication per endpoint and rounds each coefficient once (a ``dot`` per
coefficient when the mantissas spread too wide to pack), and every
u_m - rho v_m is formed exactly on the integer mantissas.  A coefficient
whose enclosure contains 0, or cannot stay nonnegative, is enclosed again
at twice the precision, up to ``_MAX_PREC`` bits (2 ``_PREC`` where rho is
a proper interval, whose width more bits cannot narrow); one still
undecided there leaves the verdict INCONCLUSIVE.  Verdicts involve no
tolerance, and no exact series is built past order 0.

In float mode the same interval certificate runs on the exact twin of the
float base, ``QBase.exact(q=q_frac)`` on q's exact rational value, and a
point it decides is reported as in exact mode (``decided_by`` "interval"),
its coeff0 and margin converted to the base's digits, the margin rounded
toward 0 so that it stays a lower bound.  The float classifier decides a
point the intervals cannot, which is one with mu, alpha, beta (or an entry
of a, b) off the half-integer grid, a tilde point whose rho enclosure would
take more than ``_MAX_PRODUCT_TERMS`` factors, or one where an enclosure
contains 0 at the widest precision or rho leaves Delta_0 undecided.  That
classifier builds the four float series (the tilde ones with their true
1/Gamma_q scale), and a strict verdict there additionally requires every
margin to exceed ten times a propagated rounding envelope, otherwise the
verdict is INCONCLUSIVE.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import partial
from math import ceil, gcd, isqrt, log

from . import conditions
from .qcore import QBase, qgamma, qgamma_ratio
from .series import (
    TermRatio,
    TruncatedSeries,
    g_series,
    geometric_tail_order,
    heine_f_series,
    zero_series,
)
from .scalar import (
    DimensionError,
    DomainError,
    ExactModeError,
    ExactScalar,
    FloatScalar,
    HypothesisError,
    Scalar,
    as_fraction,
    _cauchy_sums,
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
    lower bound, not the exact minimum: each coefficient contributes its
    enclosure's endpoint nearest zero, formed exactly on the integer
    mantissas and rounded toward zero to a dyadic rational of the
    enclosure's bits (for the tilde family with both shifts non-integer,
    the bound from the rho enclosure).
    ``coeff0`` is computed exactly (tilde with both shifts non-integer: its
    bound from the rho enclosure).

    In float mode, a point decided on intervals reports these two at the
    base's digits: ``coeff0`` rounded to nearest, ``min_margin`` rounded
    toward 0, so it stays a lower bound in value and in print.

    ``decided_by`` names the path that decided the signs: ``interval``
    (every enclosure excluded 0, in either mode), ``float`` (the float
    classifier, in float mode where the intervals cannot decide) or
    ``degenerate`` (a zero shift, or a g point with a = b, so the series
    vanishes identically); it is None when an enclosure leaves a sign
    undecided in exact mode (INCONCLUSIVE).  ``interval_bits`` is the
    widest precision any coefficient's enclosure needed: ``_PREC`` unless a
    straddle of 0 escalated it, None where no enclosure decided.  Both are
    deterministic, so exact reports stay byte-stable.

    ``expected`` is the paper's claim that the certificate checks, always
    set: strictly negative (Heine), strictly positive (tilde), or the
    direction of the chain case that holds (g, see ``chain_case``).
    ``matches_expected`` says whether the verdict and Delta_0 fulfil it
    (``_CLAIMS``); it is False for INCONCLUSIVE.
    """

    verdict: SignVerdict
    first_violation: int | None
    min_margin: Scalar | None
    order_checked: int
    coeff0: Scalar | None
    family: str
    mode: str
    normalization: str
    expected: SignVerdict
    matches_expected: bool
    chain_case: str | None = None
    decided_by: str | None = None
    interval_bits: int | None = None


# What each claim allows: the verdicts that fulfil it, and the signs of
# Delta_0 it admits (a strict claim says nothing about m = 0; a degenerate
# all-zero series fulfils either non-strict direction).
_CLAIMS = {
    SignVerdict.ALL_STRICTLY_NEG: ((SignVerdict.ALL_STRICTLY_NEG,), (-1, 0, 1)),
    SignVerdict.ALL_STRICTLY_POS: ((SignVerdict.ALL_STRICTLY_POS,), (-1, 0, 1)),
    SignVerdict.ALL_NONPOS: ((SignVerdict.ZERO, SignVerdict.ALL_NONPOS,
                              SignVerdict.ALL_STRICTLY_NEG), (-1, 0)),
    SignVerdict.ALL_NONNEG: ((SignVerdict.ZERO, SignVerdict.ALL_NONNEG,
                              SignVerdict.ALL_STRICTLY_POS), (0, 1)),
    SignVerdict.ZERO: ((SignVerdict.ZERO,), (0,)),
}


def verdict_satisfies(observed: SignVerdict, expected: SignVerdict) -> bool:
    """Whether an observed verdict fulfills the claimed sign direction."""
    return observed in _CLAIMS[expected][0]


def _shift_series_of(family: Family, mu, shifts, q: QBase, order: int, a=(),
                     b=()) -> tuple:
    """F(mu + shift) for each of ``shifts``: the one map from a family to its
    series, for the certificates and the pointwise checks alike.  Each head
    is built to order 0 by the family's constructor (a g series carries its
    Gamma_q prefactor relative to mu), and one ``TermRatio.series_of`` call
    runs their term ratios to ``order`` over one chain of q-powers, so each
    series has the bits it has when built alone.  The exact tilde series is
    its relative form (Heine's); a float one carries its 1/Gamma_q(mu +
    shift) scale."""
    if family == Family.G_NORMALIZED:
        heads = [g_series(a, b, mu + sh, q, 0, ref_mu=mu) for sh in shifts]
    else:
        heads = [heine_f_series(mu + sh, q, 0) for sh in shifts]
    built = TermRatio.series_of([h.ratio for h in heads], order)
    if family == Family.HEINE_F_TILDE and not q.is_exact:
        built = tuple(s.scaled(1 / qgamma(mu + sh, q)) for s, sh in zip(built, shifts))
    return built


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
    s_a, s_b, s_0, s_ab = _shift_series_of(
        spec.family, spec.mu, (spec.alpha, spec.beta, 0, spec.alpha + spec.beta), spec.q,
        spec.order, spec.a, spec.b)
    return s_a * s_b - s_0 * s_ab


# The normalization of the tilde certificate's interval verdicts.
_TILDE_SCALED = "scaled by Gamma_q(mu+alpha)*Gamma_q(mu+beta); x^m basis"


def reported_turanian_series(spec: TuranianSpec, rep: SignReport) -> TruncatedSeries:
    """The Turanian of spec (float mode, or a family other than tilde) in
    the normalization that its certificate ``rep`` names: a tilde verdict
    decided on intervals scales the coefficients of :func:`turanian_series`
    by Gamma_q(mu+alpha) Gamma_q(mu+beta), as its coeff0 and min_margin
    are; every other verdict reports them as they are."""
    series = turanian_series(spec)
    if rep.normalization != _TILDE_SCALED or _is_degenerate(spec):
        return series
    q = spec.q
    return series.scaled(qgamma(spec.mu + spec.alpha, q) * qgamma(spec.mu + spec.beta, q))


# -- classification ----------------------------------------------------------


# Bits of the mantissas of every outward-rounded enclosure in the exact
# certificates.  About 30 digits: the smallest relative margin on the
# acceptance grids is ~4e-3, and a coefficient whose enclosure still contains
# 0 is enclosed again at twice the bits, up to _MAX_PREC.
_PREC = 100
_MAX_PREC = 64 * _PREC


class _Interval(tuple):
    """Nonnegative dyadic enclosures [lo 2^e, hi 2^e] as (lo, hi, e) triples
    of Python ints whose two ends share one exponent, and the arithmetic on
    them.  The operations are staticmethods on plain tuples: ``ARITH``
    (``of``, ``mul``, ``div``, ``one_minus``) runs the term-ratio recurrence
    of ``TermRatio``, and ``dot`` gives one Cauchy coefficient.  They live
    in this one class, not in module functions, so that a tracer wrapping
    the module's functions adds no span per operation.  An instance is a
    triple tagged as a ``TruncatedSeries`` coefficient: the series' Cauchy
    product then goes through ``convolve``, one big-integer multiplication
    per endpoint.

    Every arithmetic result is rounded outward once, both ends by the one
    shift that leaves hi with ``prec`` bits (lo down, hi up; ``prec`` is
    _PREC unless the caller guards or escalates it): ``mul``, ``div`` and
    ``one_minus``, the recurrence's operations, round their exact result
    inline, and ``dot`` and ``convolve`` sum exact dyadic products before
    rounding through ``rounded``, so no common grid is imposed on
    coefficients that decay like q^(n^2/2).  An enclosure that cannot stay
    nonnegative (1 - x with x reaching past 1, a division by an enclosure
    reaching 0, a negative value) is ``UNBOUNDED`` (lo = -1), and so is
    every result it enters.
    """

    __slots__ = ()
    digits = _PREC * 3 // 10    # decimal digits of the endpoints (bench/tracer.py)
    UNBOUNDED = (-1, -1, 0)

    @staticmethod
    def rounded(lo: int, hi: int, e: int, prec: int = _PREC) -> tuple:
        """[lo 2^e, hi 2^e], 0 <= lo <= hi, with lo rounded down and hi
        rounded up by the shift that leaves hi with prec bits."""
        shift = hi.bit_length() - prec
        if shift > 0:
            return lo >> shift, -(-hi >> shift), e + shift
        return lo, hi, e

    @staticmethod
    def of(x: ExactScalar, prec: int = _PREC) -> tuple:
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
        k = max(prec + 10 - size, 0)
        while True:
            lo, rem = divmod(an << k, ad)
            hi = lo + (rem != 0)
            if m:
                y, rem = divmod(bb[0] << 2 * k, bb[1])
                root = isqrt(y)                 # floor(|b| sqrt(r) 2^k)
                up = root + (rem != 0 or root * root != y)
                lo, hi = (lo + root, hi + up) if m > 0 else (lo - up, hi - root)
            if lo > 0 and lo.bit_length() > prec + 8:
                return lo, hi, -k
            sign = 1 if lo > 0 else x.sign()
            if sign <= 0:
                return (0, 0, 0) if sign == 0 else _Interval.UNBOUNDED
            k += prec + 10 - lo.bit_length() if lo > 0 else k + prec

    @staticmethod
    def exact(man: int, exp: int) -> ExactScalar:
        """The dyadic rational man 2^exp."""
        if exp >= 0:
            return _exact(man << exp, 0, 1, None)
        # lowest terms: cancel the factors 2 that man shares with 2^-exp
        t = min((man & -man).bit_length() - 1, -exp) if man else -exp
        return _exact(man >> t, 0, 1 << (-exp - t), None)

    @staticmethod
    def one_minus(x: tuple, prec: int = _PREC) -> tuple:
        """1 - x: [1 - hi 2^e, 1 - lo 2^e], exact at exponent min(e, 0)."""
        xl, xh, xe = x
        if xl < 0:
            return x
        e = xe if xe < 0 else 0
        one, s = 1 << -e, xe - e
        lo = one - (xh << s)
        if lo < 0:
            return _Interval.UNBOUNDED
        hi = one - (xl << s)
        shift = hi.bit_length() - prec
        if shift > 0:
            return lo >> shift, -(-hi >> shift), e + shift
        return lo, hi, e

    @staticmethod
    def mul(x: tuple, y: tuple, prec: int = _PREC) -> tuple:
        xl, xh, xe = x
        yl, yh, ye = y
        if xl < 0 or yl < 0:
            return _Interval.UNBOUNDED
        hi = xh * yh
        shift = hi.bit_length() - prec
        if shift > 0:
            return xl * yl >> shift, -(-hi >> shift), xe + ye + shift
        return xl * yl, hi, xe + ye

    @staticmethod
    def div(x: tuple, y: tuple, prec: int = _PREC) -> tuple:
        xl, xh, xe = x
        yl, yh, ye = y
        if xl < 0 or yl <= 0:
            return _Interval.UNBOUNDED
        # shift the dividends so that the upper quotient keeps >= prec bits;
        # a dividend already that much longer than its divisor needs no shift
        k = max(prec + 1 + yl.bit_length() - xh.bit_length(), 0)
        lo, hi, e = (xl << k) // yh, -(-(xh << k) // yl), xe - ye - k
        shift = hi.bit_length() - prec
        if shift > 0:
            return lo >> shift, -(-hi >> shift), e + shift
        return lo, hi, e

    @staticmethod
    def dot(xs, ys, prec: int = _PREC) -> tuple:
        """Enclosure of the sum of x*y over the pairs: the exact sums of the
        endpoint products at their smallest exponent, rounded once."""
        e = min([x[2] + y[2] for x, y in zip(xs, ys)])
        lo = hi = 0
        for (xl, xh, xe), (yl, yh, ye) in zip(xs, ys):
            if xl < 0 or yl < 0:
                return _Interval.UNBOUNDED
            s = xe + ye - e
            lo += xl * yl << s
            hi += xh * yh << s
        return _Interval.rounded(lo, hi, e, prec)

    @staticmethod
    def convolve(xs, ys, prec: int = _PREC) -> list:
        """The Cauchy product of two enclosure sequences, truncated to the
        shorter: entry n has the dyadic value of dot(xs[:n + 1], ys[n::-1]).

        Each sequence's mantissas are moved onto its smallest exponent, the
        packed kernel ``_cauchy_sums`` gives every coefficient's exact sums
        by one multiplication per endpoint, and each pair is rounded once.
        A sequence whose mantissas at one exponent would exceed 2 prec bits
        (the d = 1 g series, which decay like q^(n^2/2)) goes through the
        ``dot`` loop instead.  From the first unbounded entry of either
        sequence on, every entry is UNBOUNDED.
        """
        size = min(len(xs), len(ys))
        n = next((i for i in range(size) if xs[i][0] < 0 or ys[i][0] < 0), size)
        unbounded = [_Interval.UNBOUNDED] * (size - n)
        if not n:
            return unbounded
        ends = []
        for seq in (xs[:n], ys[:n]):
            e = min(x[2] for x in seq)
            his = [h << (he - e) for _, h, he in seq]
            bits = max(h.bit_length() for h in his)
            if bits > 2 * prec:
                return [_Interval.dot(xs[:k + 1], ys[k::-1], prec)
                        for k in range(n)] + unbounded
            ends.append(([lo << (le - e) for lo, _, le in seq], his, e, bits))
        (xlo, xhi, xe, xbits), (ylo, yhi, ye, ybits) = ends
        bits = xbits + ybits
        return [_Interval.rounded(lo, hi, xe + ye, prec) for lo, hi
                in zip(_cauchy_sums(xlo, ylo, bits), _cauchy_sums(xhi, yhi, bits))] + unbounded

    @staticmethod
    def bound_minus(u: tuple, rho: tuple, v: tuple, prec: int = _PREC) -> ExactScalar | None:
        """The endpoint nearest 0 of the enclosure of u - rho v, formed
        exactly on the mantissas and rounded toward 0 to prec bits; None
        when that enclosure contains 0 or an operand is unbounded."""
        ul, uh, ue = u
        rl, rh, re = rho
        vl, vh, ve = v
        if ul < 0 or rl < 0 or vl < 0:
            return None
        pe = re + ve
        e = min(ue, pe)
        s, t = ue - e, pe - e
        lo = (ul << s) - (rh * vh << t)
        hi = (uh << s) - (rl * vl << t)
        if lo <= 0 <= hi:
            return None
        end = lo if lo > 0 else hi
        shift = max(end.bit_length() - prec, 0)
        man = end >> shift if end > 0 else -(-end >> shift)
        return _Interval.exact(man, e + shift)


# The arithmetic that runs a TermRatio recurrence on enclosures.
_Interval.ARITH = (_Interval.of, _Interval.mul, _Interval.div, _Interval.one_minus)


def _coeff0_bound(heads, rho_lo, rho_hi):
    """Exact bound on Delta_0 = u_0 - rho v_0 with its sign.  As v_0 > 0,
    Delta_0 lies in [u_0 - rho_hi v_0, u_0 - rho_lo v_0]; the bound is its
    endpoint nearest 0, None when it contains 0 without being the point 0."""
    f_a, f_b, f_0, f_ab = (h.coeffs[0] for h in heads)
    u, v = f_a * f_b, f_0 * f_ab
    lo, hi = u - rho_hi * v, u - rho_lo * v
    if lo.sign() > 0 or (lo.is_zero() and hi.is_zero()):
        return lo
    if hi.sign() < 0:
        return hi
    return None


def _interval_bounds(heads, order: int, rho):
    """Certified bounds on every Delta_m = u_m - rho v_m of four shifted series.

    ``heads`` holds (F(mu+alpha), F(mu+beta), F(mu), F(mu+alpha+beta))
    exactly to order 0, so u = F(mu+alpha)F(mu+beta), v = F(mu)F(mu+alpha+
    beta), and ``rho`` is an exact enclosure (rho_lo, rho_hi) of the
    prefactor ratio ((1, 1) for the Heine and g families).  The heads' term
    ratios enclose the series at _PREC bits and _Interval.convolve forms
    both products.  A coefficient whose enclosure contains 0 or is
    unbounded is enclosed again at twice the precision, one _Interval.dot
    per product on enclosures rebuilt from the ratios: up to _MAX_PREC
    bits, or 2 _PREC where rho is a proper interval, whose width no
    precision of the series narrows.  Each bound (_Interval.bound_minus)
    has its coefficient's sign and at most its magnitude.  Returns (coeff0
    bound, bounds for m >= 1, the widest precision used), or None when a
    sign stays undecided.
    """
    rho_lo, rho_hi = rho
    head = _coeff0_bound(heads, rho_lo, rho_hi)
    if head is None:
        return None
    ratios = [h.ratio for h in heads]
    bounds, undecided, prec = [None] * order, range(1, order + 1), _PREC
    cap = _MAX_PREC if rho_lo == rho_hi else 2 * _PREC
    while undecided:
        if prec > cap:
            return None
        first = prec == _PREC
        arith = _Interval.ARITH if first else tuple(
            partial(f, prec=prec) for f in _Interval.ARITH)
        f_a, f_b, f_0, f_ab = (TruncatedSeries(tuple(map(_Interval, s.coeffs)), s.order) for s
                               in TermRatio.series_of(ratios, undecided[-1], arith))
        if first:
            u, v = (f_a * f_b).coeffs, (f_0 * f_ab).coeffs
        else:
            u, v = ({m: _Interval.dot(x.coeffs[:m + 1], y.coeffs[m::-1], prec)
                     for m in undecided} for x, y in ((f_a, f_b), (f_0, f_ab)))
        (lo, _, lo_e), (_, hi, hi_e) = _Interval.of(rho_lo, prec), _Interval.of(rho_hi, prec)
        e = min(lo_e, hi_e)
        rho_iv = lo << (lo_e - e), hi << (hi_e - e), e
        for m in undecided:
            bounds[m - 1] = _Interval.bound_minus(u[m], rho_iv, v[m], prec)
        undecided = [m for m in undecided if bounds[m - 1] is None]
        prec *= 2
    return head, bounds, prec // 2


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
    eps = FloatScalar(10, digits) ** (2 - digits)
    return [abs(s) * eps * 4 * (m + 2) for m, s in enumerate(scale_coeffs)]


def _classify_float(tail, bounds):
    """_classify_exact on float coefficients, INCONCLUSIVE when a nonzero
    coefficient lies within ten error bounds of 0."""
    for c, bnd in zip(tail, bounds):
        if not c.is_zero() and abs(c) <= 10 * bnd:
            return SignVerdict.INCONCLUSIVE, None, None
    return _classify_exact(tail)


def _interval_base(spec: TuranianSpec) -> QBase | None:
    """The exact base the interval certificate of spec runs on: spec's own
    in exact mode; in float mode that of q's exact rational value, or None
    where the intervals cannot run (mu, alpha, beta or an entry of a or b
    off the half-integer grid)."""
    q = spec.q
    if q.is_exact:
        return q
    shifts = (spec.mu, spec.alpha, spec.beta, *spec.a, *spec.b)
    if any((2 * s).denominator != 1 for s in shifts):
        return None
    return QBase.exact(q=q.q_frac)


def _certify(spec: TuranianSpec, expected, norm, base, rho=(ex(1), ex(1)),
             chain_case=None, float_norm=None) -> SignReport:
    """The SignReport of the Turanian of spec, in every family and mode.

    A zero shift makes the Turanian vanish identically.  Otherwise the
    four shifted series are built exactly to order 0 only, on the exact
    ``base`` (see _interval_base); a g point with a = b as multisets then
    vanishes identically too, once its heads have raised any pole.  Else
    the heads' term ratios enclose the series (_interval_bounds, which
    takes ``rho``).  Where ``base`` or ``rho`` is None, or the intervals
    leave a sign undecided, exact mode reports INCONCLUSIVE and float mode
    has the float classifier decide, on the float series against a
    rounding envelope, with ``float_norm`` (default ``norm``) naming their
    normalization.
    """
    if spec.order < 1:
        raise HypothesisError(
            f"a sign certificate needs order >= 1 (coefficients m >= 1), "
            f"got {spec.order}"
        )
    verdict, viol, margin, coeff0 = SignVerdict.INCONCLUSIVE, None, None, None
    decided_by, bits = None, None
    exact = spec.q.is_exact
    shifts = (spec.alpha, spec.beta, 0, spec.alpha + spec.beta)
    cancels = spec.family == Family.G_NORMALIZED and sorted(spec.a) == sorted(spec.b)
    if not _is_degenerate(spec) and (cancels or base is not None and rho is not None):
        heads = _shift_series_of(spec.family, spec.mu, shifts, base or spec.q, 0, spec.a, spec.b)
        found = None if cancels else _interval_bounds(heads, spec.order, rho)
        if found is not None:
            coeff0, bounds, bits = found
            verdict, viol, margin = _classify_exact(bounds)
            decided_by = "interval"
            if not exact:
                coeff0 = coeff0.to_float_scalar(spec.q.digits)
                if margin is not None:
                    margin = margin.to_float_toward_zero(spec.q.digits)
    if cancels or _is_degenerate(spec):
        verdict, decided_by = SignVerdict.ZERO, "degenerate"
        margin = coeff0 = spec.q.zero
    if decided_by is None and not exact:
        s_a, s_b, s_0, s_ab = _shift_series_of(spec.family, spec.mu, shifts, spec.q,
                                               spec.order, spec.a, spec.b)
        u, v = s_a * s_b, s_0 * s_ab
        delta = u - v
        bounds = _float_error_bounds((u + v).coeffs[1:], spec.q.digits)
        verdict, viol, margin = _classify_float(delta.coeffs[1:], bounds)
        coeff0, decided_by = delta.coeffs[0], "float"
        norm = float_norm or norm
    verdicts, head_signs = _CLAIMS[expected]
    matches = decided_by == "degenerate" or (
        decided_by is not None and verdict in verdicts and coeff0.sign() in head_signs)
    return SignReport(verdict, viol, margin, spec.order, coeff0, spec.family.value,
                      spec.q.mode, norm, chain_case=chain_case, expected=expected,
                      matches_expected=matches, decided_by=decided_by,
                      interval_bits=bits)


def _positive_hypotheses(spec: TuranianSpec):
    mu, alpha, beta = spec.mu, spec.alpha, spec.beta
    if not (mu > 0 and alpha >= 0 and beta >= 0):
        raise HypothesisError(
            f"mu must be positive and alpha, beta nonnegative, got ({mu}, {alpha}, {beta})"
        )
    return mu, alpha, beta


def _is_degenerate(spec: TuranianSpec) -> bool:
    return spec.alpha == 0 or spec.beta == 0


def delta_sign_certificate(spec: TuranianSpec) -> SignReport:
    """Sign certificate for the Heine-f Turanian (expected strictly negative)."""
    if spec.family != Family.HEINE_F:
        raise ValueError("delta_sign_certificate works on the heine-f family")
    _positive_hypotheses(spec)
    return _certify(spec, SignVerdict.ALL_STRICTLY_NEG, "x^m coefficients",
                    _interval_base(spec))


# -- tilde family: interval enclosure of the prefactor ratio -----------------


# The precision of the (a; q)_inf enclosures: 32 guard bits, because those
# products round about N + 1/(1-q)^2 times over N factors (at _PREC bits, a
# relative width of 2^-83 at q = 99/100 instead of their 2^-_PREC tail).
_GUARDED_PREC = _PREC + 32


# The most factors an (a; q)_inf enclosure may take.  N grows like 1/(1-q):
# about 7400 at q = 99/100, 76200 at q = 999/1000, the cap near q = 0.99941.
_MAX_PRODUCT_TERMS = 1 << 17


def _qpoch_inf_interval(a: tuple, q: tuple, gap: tuple) -> tuple:
    """Enclosure of (a; q)_infty, 0 < a < 1, given a, q and gap = 1 - q: the
    product of 1 - a q^k over k < N times the tail factor in
    [1 - a q^N / (1-q), 1] (Gasper & Rahman, ch. 1), N the first count whose
    tail deficit is below 2^-_PREC.  Every enclosure here is rounded to
    _GUARDED_PREC bits."""
    mul, prec = _Interval.mul, _GUARDED_PREC
    # 2^stop <= (1-q) 2^-_PREC, so a q^N below 2^stop bounds the deficit
    stop = gap[0].bit_length() - 1 + gap[2] - _PREC
    prod, t = (1, 1, 0), a
    while t[1].bit_length() + t[2] > stop:
        prod, t = mul(prod, _Interval.one_minus(t, prec), prec), mul(t, q, prec)
    tail_lo, _, tail_e = _Interval.one_minus(_Interval.div(t, gap, prec), prec)
    return mul(prod, (tail_lo, 1 << -tail_e, tail_e), prec)


def _rho_interval(mu, alpha, beta, q: QBase, *_):
    """Exact bounds (rho_lo, rho_hi) on Gamma_q(mu+a)Gamma_q(mu+b) /
    (Gamma_q(mu)Gamma_q(mu+a+b)) for mu > 0 and alpha, beta >= 0 in exact mode.

    rho is symmetric in alpha and beta, and exact (zero-width) when either
    one is an integer, say alpha: then it is the finite ratio
    Gamma_q(mu+a)/Gamma_q(mu) over Gamma_q(mu+b+a)/Gamma_q(mu+b).
    For alpha and beta both non-integer, Gamma_q(x) = (q;q)_inf (1-q)^(1-x)
    / (q^x;q)_inf makes rho
    (q^mu;q)_inf (q^(mu+a+b);q)_inf / ((q^(mu+a);q)_inf (q^(mu+b);q)_inf),
    whose interval enclosure gives the bounds.  A q whose products would
    take more than _MAX_PRODUCT_TERMS factors raises DomainError before any
    is formed.  Further positional arguments (the benchmark's stage timing
    passes one) are ignored.
    """
    if beta.denominator == 1:
        alpha, beta = beta, alpha
    if alpha.denominator == 1:
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
    iv, prec = _Interval, _GUARDED_PREC
    qq = iv.of(q.q, prec)
    n1, n2, d1, d2 = (_qpoch_inf_interval(iv.of(q.q_power(mu + s), prec), qq,
                                          iv.one_minus(qq, prec))
                      for s in (0, alpha + beta, alpha, beta))
    lo, hi, e = iv.div(iv.mul(n1, n2, prec), iv.mul(d1, d2, prec), prec)
    return iv.exact(lo, e), iv.exact(hi, e)


def delta_tilde_sign_certificate(spec: TuranianSpec) -> SignReport:
    """Sign certificate for the tilde Turanian (expected strictly positive).

    The interval certificate reports margins for the coefficients rescaled
    by the positive constant Gamma_q(mu+alpha) Gamma_q(mu+beta): the m-th
    rescaled coefficient is u_m - rho v_m, certified through one enclosure
    of rho (_rho_interval: exact when alpha or beta is an integer, an
    interval enclosure of its infinite products otherwise), so the verdict
    carries no tolerance.  In float mode a rho enclosure past
    _MAX_PRODUCT_TERMS factors leaves the point to the float classifier,
    which reports absolute coefficients.
    """
    if spec.family != Family.HEINE_F_TILDE:
        raise ValueError("delta_tilde_sign_certificate works on the tilde family")
    mu, alpha, beta = _positive_hypotheses(spec)
    base, rho = _interval_base(spec), None
    if base is not None:
        try:
            rho = _rho_interval(mu, alpha, beta, base)
        except DomainError:         # past _MAX_PRODUCT_TERMS
            if spec.q.is_exact:
                raise
    return _certify(spec, SignVerdict.ALL_STRICTLY_POS, _TILDE_SCALED, base, rho,
                    float_norm="absolute x^m coefficients")


# The sign direction each chain case predicts for the g Turanian.
_CASE_EXPECTED = {"a+b": SignVerdict.ZERO, "a": SignVerdict.ALL_NONPOS,
                  "b": SignVerdict.ALL_NONNEG}


def gamma_sign_certificate(spec: TuranianSpec) -> SignReport:
    """Sign certificate for the normalized-g Turanian.

    The expected direction is decided by the chain conditions on the derived
    vectors: case (b) predicts non-negative coefficients, case (a)
    non-positive; both holding forces the zero series.  In both modes alpha
    and beta must be nonnegative integers (the g series carries its Gamma_q
    prefactor relative to mu), else HypothesisError.  A point outside the
    theorem, where neither chain holds or alpha > beta + 1, has no sign
    claim to check and raises HypothesisError too.
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
    if chain_case is None:
        raise HypothesisError("neither chain condition holds; no sign claim applies")
    if not alpha <= beta + 1:
        raise HypothesisError(
            f"coefficientwise claim needs alpha <= beta+1, got "
            f"alpha={alpha}, beta={beta}"
        )
    return _certify(spec, _CASE_EXPECTED[chain_case],
                    "relative to (Gamma_q(a+mu)/Gamma_q(b+mu))^2; x^m basis",
                    _interval_base(spec), chain_case=chain_case)


def sign_certificate(spec: TuranianSpec) -> SignReport:
    """Dispatch to the family's certificate."""
    if spec.family == Family.HEINE_F:
        return delta_sign_certificate(spec)
    if spec.family == Family.HEINE_F_TILDE:
        return delta_tilde_sign_certificate(spec)
    return gamma_sign_certificate(spec)


# -- pointwise inequality and grid checks ------------------------------------


def _auto_order(family: Family, x_abs, q: QBase, a=(), b=()):
    entire = family == Family.G_NORMALIZED and len(a) <= len(b)
    if entire:
        return 100
    return geometric_tail_order(x_abs, FloatScalar(10, q.digits) ** (6 - q.digits),
                                minimum=100)


def turan_point_inequality(family: Family, mu, x, q: QBase, direction: str, *,
                           order: int | None = None, a=(), b=()):
    """Check F(mu+1)^2 against F(mu)F(mu+2) at the point x (float mode).

    ``direction='direct'`` asserts F(mu+1)^2 >= F(mu)F(mu+2);
    ``direction='inverse'`` the reverse.  Returns (holds, margin).  The
    three series share one chain of q-powers (``_shift_series_of``).
    """
    if q.is_exact:
        raise ExactModeError("point inequalities evaluate in float mode")
    if direction not in ("direct", "inverse"):
        raise ValueError("direction must be 'direct' or 'inverse'")
    x = q.scalar(x)
    if order is None:
        order = _auto_order(family, abs(x), q, a, b)
    vals = [s.eval(x) for s in _shift_series_of(family, mu, (0, 1, 2), q, order, a, b)]
    lhs = vals[1] * vals[1]
    rhs = vals[0] * vals[2]
    margin = (lhs - rhs) if direction == "direct" else (rhs - lhs)
    return margin.sign() >= 0, margin


def logconcavity_grid_check(family: Family, mu_grid, x, q: QBase, *,
                            order: int | None = None):
    """Discrete midpoint log-convexity/concavity scan over a uniform mu grid.

    Heine-f is checked for log-convexity (f(mu_i) f(mu_{i+2}) >=
    f(mu_{i+1})^2), the tilde family for log-concavity (reverse direction,
    with the true 1/Gamma_q scale applied).  The grid of exact rationals
    needs at least three points and one nonzero spacing, else
    DimensionError: the midpoint test holds only on equal steps.  Returns
    (ok, margins).
    """
    if q.is_exact:
        raise ExactModeError("grid checks evaluate in float mode")
    if len(mu_grid) < 3:
        raise DimensionError(
            f"a midpoint scan needs at least 3 grid points, got {len(mu_grid)}")
    grid = [as_fraction(m) for m in mu_grid]
    steps = {hi - lo for lo, hi in zip(grid, grid[1:])}
    if len(steps) != 1 or 0 in steps:
        raise DimensionError("a midpoint scan needs a uniform mu grid with nonzero spacing")
    if family not in (Family.HEINE_F, Family.HEINE_F_TILDE):
        raise ValueError("log-concavity scan supports the Heine families")
    x = q.scalar(x)
    if not (FloatScalar(0, q.digits) < x and x < FloatScalar(1, q.digits)):
        raise DomainError("the scan needs 0 < x < 1")
    if order is None:
        order = _auto_order(family, abs(x), q)
    values = [s.eval(x) for s in _shift_series_of(family, 0, grid, q, order)]
    margins = []
    for i in range(len(values) - 2):
        outer = values[i] * values[i + 2]
        mid = values[i + 1] * values[i + 1]
        margins.append(outer - mid if family == Family.HEINE_F else mid - outer)
    return all(m.sign() >= 0 for m in margins), margins


def integer_shift_reduction_check(spec: TuranianSpec, alpha_max: int):
    """Confirm the alpha = 1 verdict propagates to integer alpha up to alpha_max.

    alpha_max must be at least 1.  For the g family the coefficientwise
    claim is only tested within alpha <= beta + 1.  Returns (consistent,
    reports by alpha).
    """
    if alpha_max < 1:
        raise DimensionError(f"the reduction starts at alpha = 1, got alpha_max = {alpha_max}")
    reports = {}
    for a_val in range(1, alpha_max + 1):
        # alpha = 1 always runs, so a spec outside the claim raises there
        if reports and spec.family == Family.G_NORMALIZED and not a_val <= spec.beta + 1:
            break
        reports[a_val] = sign_certificate(replace(spec, alpha=a_val))
    consistent = all(verdict_satisfies(r.verdict, reports[1].expected)
                     for r in reports.values())
    return consistent, reports
