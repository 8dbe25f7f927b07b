"""Truncated power series and the series families used throughout.

A :class:`TruncatedSeries` holds coefficients c_0..c_M in x.  Arithmetic
between series of different orders truncates to the smaller order; the
Cauchy product is the single convolution kernel every Turanian goes
through.  It hands each output coefficient's whole sum to the coefficient
type's ``dot(xs, ys)``: exact sums add integer numerators over the lcm of
the term denominators and reduce once, and float sums add the exact
products of the mantissas and round once.  A coefficient type with a
``convolve(xs, ys)`` forms the whole product instead, each coefficient
equal to its ``dot``: floats and the interval enclosures of the exact sign
certificates (integer triples) make it one big-integer multiplication (one
per endpoint for enclosures), with a ``dot`` per coefficient when the
mantissas spread too wide to pack.

The q-hypergeometric constructors, the q-Bessel sums and the 4phi3 of
Rahman's product share one :class:`TermRatio`: c_0 and the parameters of
c_n / c_(n-1), including base-q^2 upper parameters (``upper_sq``), whose
recurrence takes its arithmetic as ``arith`` = (lift, mul, div,
one_minus): by default the scalars' own operators on an exact base and
``FloatScalar.arith``, raw ``mpmath.libmp`` tuples with the operators'
bits, on a float base; the exact sign certificates pass the interval
arithmetic.  ``TermRatio.series_of`` runs several ratios on one base over
one chain of q^n and 1 - q^n, each step's factors planned once per ratio,
and gives each series the bits it has when built alone; the certificates
build their four enclosures so.  Each series keeps its ratio as
``ratio``, and carries the tail note "converges for |x| < 1 only" exactly
when d = 0, where the ratio tends to 1.  Evaluation is Horner's rule,
which a float series runs on raw tuples too (``FloatScalar.horner``),
again with the operators' bits.

Constructors:

* :func:`tphis_series` -- the generalized q-hypergeometric series with t
  upper and s lower parameters (t <= s+1), coefficient
  (a; q)_n / ((b; q)_n (q; q)_n) * [(-1)^n q^binom(n,2)]^(1+s-t).
* :func:`g_series` -- the Gamma_q-normalized series with all parameters
  shifted by mu and the argument factor (q-1)^(1+s-t) absorbed into the
  coefficients, so evaluation points stay nonnegative.
* :func:`heine_f_series` / :func:`heine_f_tilde_series` -- Heine's
  2phi1(0,0; q^mu; x) and its 1/Gamma_q(mu) normalization.
* :func:`qbessel_j1`, :func:`qbessel_j2`, :func:`modified_qbessel_i1` --
  the two Jackson q-Bessel analogues and the first modified q-Bessel
  function (float mode, point evaluation).
* :func:`kummer_1f1_unit_top` -- the confluent series 1F1(1; b; x) with
  coefficients 1/(b)_n, in plain rational arithmetic.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Sequence

import mpmath

from .qcore import QBase, qgamma, qgamma_ratio, qpochhammer_infinite
from .scalar import (
    CollisionError,
    DomainError,
    ExactModeError,
    ExactScalar,
    FloatScalar,
    HypothesisError,
    PoleError,
    Scalar,
    _float,
    as_fraction,
    ex,
    one_like,
)


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_M of a power series in x, with a tail annotation.

    ``ratio`` is the :class:`TermRatio` the coefficients were built from, if
    any; it continues them to any order or into another coefficient type.
    Arithmetic results carry none.
    """

    coeffs: tuple
    order: int
    tail_note: str | None = None
    ratio: "TermRatio | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"order {self.order} needs {self.order + 1} coefficients, "
                f"got {len(self.coeffs)}"
            )

    def eval(self, x) -> Scalar:
        """Horner evaluation at x; a tail note marks an |x| < 1 domain.

        The coefficient type's ``horner(coeffs, x)`` sums where it has one
        (floats, on raw tuples with the bits of the loop below), the loop
        acc = acc * x + c otherwise."""
        if self.tail_note is not None and not abs(x) < one_like(x):
            raise DomainError(f"series {self.tail_note}")
        horner = getattr(type(self.coeffs[0]), "horner", None)
        if horner is not None:
            return horner(self.coeffs, x)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(self.order, other.order)
        coeffs = tuple(self.coeffs[i] + other.coeffs[i] for i in range(m + 1))
        return TruncatedSeries(coeffs, m, self.tail_note)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(self.order, other.order)
        coeffs = tuple(self.coeffs[i] - other.coeffs[i] for i in range(m + 1))
        return TruncatedSeries(coeffs, m, self.tail_note)

    def product_coefficient(self, other: "TruncatedSeries", n: int) -> Scalar:
        """Coefficient n of the Cauchy product self * other, in O(n): the
        coefficient type's ``dot`` of c_0..c_n with other's c_n..c_0.  It
        equals coefficient n of ``self * other`` in every coefficient type:
        a float ``dot`` rounds once, as ``convolve`` does."""
        return self.coeffs[0].dot(self.coeffs[:n + 1], other.coeffs[n::-1])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, truncated to the smaller order: the coefficient
        type's ``convolve(xs, ys)`` where it has one (floats and the
        interval enclosures), its ``dot`` per coefficient otherwise."""
        m = min(self.order, other.order)
        convolve = getattr(type(self.coeffs[0]), "convolve", None)
        if convolve is not None:
            out = tuple(convolve(self.coeffs, other.coeffs))
        else:
            out = tuple(self.product_coefficient(other, n) for n in range(m + 1))
        return TruncatedSeries(out, m, self.tail_note)

    def scaled(self, c: Scalar) -> "TruncatedSeries":
        return TruncatedSeries(tuple(c * v for v in self.coeffs), self.order,
                               self.tail_note)

    def to_float(self, digits: int) -> "TruncatedSeries":
        coeffs = tuple(
            c.to_float_scalar(digits) if isinstance(c, ExactScalar) else c
            for c in self.coeffs
        )
        return TruncatedSeries(coeffs, self.order, self.tail_note)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)


def zero_series(q: QBase, order: int) -> TruncatedSeries:
    return TruncatedSeries(tuple(q.zero for _ in range(order + 1)), order)


@dataclass(frozen=True)
class PhiSpec:
    """Upper/lower parameter values of a t-phi-s series over a base q.

    The entries are the series parameters themselves (for instance q^(a+mu),
    or literal 0); the convergence constraint t <= s+1 is enforced here.
    """

    upper: tuple
    lower: tuple
    q: QBase

    def __post_init__(self):
        if len(self.upper) > len(self.lower) + 1:
            raise DomainError(
                f"t={len(self.upper)} upper parameters need t <= s+1 "
                f"(s={len(self.lower)})"
            )


# TermRatio arithmetic on the scalars themselves: lift, *, / and 1 - x.
_SCALAR_ARITH = (lambda x: x, operator.mul, operator.truediv, partial(operator.sub, 1))


@dataclass(frozen=True)
class TermRatio:
    """A series given by its first coefficient and its term ratio

        c_n / c_(n-1) = (s q^(n-1))^d prod_i (1 - u_i q^(n-1)) prod_k (1 - w_k q^(2n-2))
                        / ((1 - q^n) prod_j (1 - v_j q^(n-1))),

    the shape every q-hypergeometric family here shares (Gasper & Rahman,
    *Basic Hypergeometric Series*, ch. 1); a factor 1 - w_k q^(2n-2) is
    that of (w_k; q^2)_n.  ``c0``, ``scale`` (s, unused when d = 0) and the
    parameters u_i (``upper``), v_j (``lower``) and w_k (``upper_sq``) are
    scalars of ``base``.  When d = 0 the ratio tends to 1, so the series
    converges for |x| < 1 only: the series it builds then carry a tail note,
    which :meth:`TruncatedSeries.eval` enforces.
    """

    c0: Scalar
    upper: tuple
    lower: tuple
    base: QBase
    d: int = 0
    scale: Scalar | None = None
    upper_sq: tuple = ()

    def series(self, order: int, arith=None) -> TruncatedSeries:
        """c_0..c_order from the term-ratio recurrence: the one-ratio case
        of :meth:`series_of`, whose docstring gives ``arith`` and the
        defaults."""
        return TermRatio.series_of((self,), order, arith)[0]

    @staticmethod
    def series_of(ratios, order: int, arith=None) -> tuple:
        """The series c_0..c_order of each of ``ratios``, built over one chain
        of q-powers.

        ``arith`` = (lift, mul, div, one_minus) is the arithmetic the
        recurrences run in: ``lift`` maps each scalar into its coefficient
        type, and the other three are x * y, x / y and 1 - x there.  The
        default on an exact base is the scalars' own operators; on a float
        base it is ``FloatScalar.arith`` at each ratio's largest digits
        among c0, the scale, the parameters and q, whose raw results are
        wrapped once per coefficient: the bits of the operators on values
        at those digits.

        The chain is lift(1), lift(q), q^n = q^(n-1) q and 1 - q^n up to
        ``order`` (and q^(2n-2) when some ratio has ``upper_sq``), formed once
        per arithmetic (once per digits value on a float base without
        ``arith``); every ratio's recurrence reads it, with the lifts and
        operations in the order a ratio built alone would take them, so
        each series has the bits it has alone.  The ratios share one
        ``base``, else ValueError.  A vanishing lower factor raises
        CollisionError, decided on the scalars themselves before anything
        is built.  Parameters that are both upper and lower cancel, and a
        repeated parameter's factor is formed once.
        """
        q = ratios[0].base
        runs = {}               # digits to wrap at (None: none) -> ratio indices
        for i, r in enumerate(ratios):
            if r.base is not q:
                raise ValueError("series_of needs ratios over one base")
            r._refuse_collision(order)
            digits = None
            if arith is None and not q.is_exact:
                used = (r.c0, q.q, *r.upper, *r.lower, *r.upper_sq,
                        *((r.scale,) if r.d else ()))
                digits = max([q.digits] + [x.digits for x in used
                                           if type(x) is FloatScalar])
            runs.setdefault(digits, []).append(i)
        out = [None] * len(ratios)
        for digits, indices in runs.items():
            run = arith or (_SCALAR_ARITH if digits is None else FloatScalar.arith(digits))
            lift, mul, _, one_minus = run
            qq = lift(q.q)
            powers = [lift(q.one)]          # q^n, n = 0..order
            for _ in range(order):
                powers.append(mul(powers[-1], qq))
            gaps = [one_minus(qn) for qn in powers[1:]]     # 1 - q^n, n = 1..order
            squares = None                  # q^(2n), n < order, once a ratio needs them
            for i in indices:
                r = ratios[i]
                if r.upper_sq and squares is None:
                    squares = [mul(qn, qn) for qn in powers[:order]]
                coeffs = r._recurrence(run, powers, gaps, squares, order)
                if digits is not None:
                    coeffs = [_float(c, digits) for c in coeffs]
                note = None if r.d else "converges for |x| < 1 only"
                out[i] = TruncatedSeries(tuple(coeffs), order, note, r)
        return tuple(out)

    def _refuse_collision(self, order: int):
        """CollisionError when a lower factor 1 - v q^(n-1), n <= order, vanishes."""
        q = self.base
        for v in self.lower:
            qk = q.one
            for n in range(1, order + 1):
                factor = 1 - v * qk
                if factor.is_zero():
                    raise CollisionError(
                        f"lower parameter hits q^(-{n - 1}); (b; q)_n vanishes at n={n}"
                    )
                if factor.sign() > 0:
                    break       # v q^k < 1 from here on
                qk = qk * q.q

    def _recurrence(self, arith, powers, gaps, squares, order: int) -> list:
        """c_0..c_order on the chain of series_of: the step's factors are
        planned once, as (parameter, multiplicity, the powers it multiplies,
        whether the factor is 1 - x), and every step runs the same loop."""
        lift, mul, div, one_minus = arith
        up, low = Counter(self.upper), Counter(self.lower)
        if up and low:
            shared = up & low
            up, low = up - shared, low - shared
        numer = [(lift(self.scale), self.d, powers, False)] if self.d else []
        numer += [(lift(u), k, powers, True) for u, k in up.items()]
        numer += [(lift(w), k, squares, True)
                  for w, k in Counter(self.upper_sq).items()]
        lower = [(lift(v), k) for v, k in low.items()]
        c = lift(self.c0)
        coeffs = [c]
        for n in range(order):          # c_(n+1) from c_n; powers[n] = q^n
            num = None                  # the empty product
            for p, k, pw, minus in numer:
                factor = mul(p, pw[n])
                if minus:
                    factor = one_minus(factor)
                for _ in range(k):
                    num = factor if num is None else mul(num, factor)
            den = gaps[n]
            for v, k in lower:
                factor = one_minus(mul(v, powers[n]))
                for _ in range(k):
                    den = mul(den, factor)
            c = div(c, den) if num is None else mul(c, div(num, den))
            coeffs.append(c)
        return coeffs


def tphis_series(spec: PhiSpec, order: int) -> TruncatedSeries:
    """The generalized q-hypergeometric series as a truncated series in z.

    Coefficient n is (a; q)_n / ((b; q)_n (q; q)_n) times
    [(-1)^n q^binom(n,2)]^(1+s-t).  Literal-zero upper entries contribute
    factor 1.  A vanishing lower factor raises CollisionError.
    """
    q = spec.q
    t, s = len(spec.upper), len(spec.lower)
    d = 1 + s - t
    ratio = TermRatio(q.one, tuple(map(q.scalar, spec.upper)),
                      tuple(map(q.scalar, spec.lower)), q, d, q.scalar(-1))
    return ratio.series(order)


def heine_f_series(mu, q: QBase, order: int) -> TruncatedSeries:
    """Heine's 2phi1(0, 0; q^mu; x): coefficient n = 1/((q^mu; q)_n (q; q)_n)."""
    mu = as_fraction(mu)
    if not mu > 0:
        raise HypothesisError(f"heine_f needs mu > 0, got mu={mu}")
    return TermRatio(q.one, (), (q.q_power(mu),), q).series(order)


def heine_f_tilde_series(mu, q: QBase, order: int, *,
                         absolute: bool = False) -> TruncatedSeries:
    """Heine's series normalized by 1/Gamma_q(mu).

    By the Gamma-ratio identity the coefficients relative to the common
    factor 1/Gamma_q(mu) coincide with those of :func:`heine_f_series`;
    that relative form is the default and is exact.  With ``absolute=True``
    (float mode only) the true 1/Gamma_q(mu) scale is applied.
    """
    base = heine_f_series(mu, q, order)
    if not absolute:
        return base
    if q.is_exact:
        raise ExactModeError("absolute tilde normalization needs float mode")
    scale = 1 / qgamma(mu, q)
    return TruncatedSeries(tuple(scale * c for c in base.coeffs), order, base.tail_note)


def _validate_g_params(a, b, mu):
    a, b, mu = tuple(map(as_fraction, a)), tuple(map(as_fraction, b)), as_fraction(mu)
    if len(a) > len(b) + 1:
        raise DomainError(f"t={len(a)} needs t <= s+1 (s={len(b)})")
    if any(not v >= 0 for v in a) or any(not v >= 0 for v in b):
        raise HypothesisError("parameter vectors must be nonnegative")
    if not mu >= 0:
        raise HypothesisError(f"mu must be nonnegative, got {mu}")
    return a, b, mu


def g_relative_prefactor(a, b, ref_mu, sigma: int, q: QBase) -> Scalar:
    """Gamma_q(a+ref+sigma)/Gamma_q(b+ref+sigma) relative to the same ratio
    at ref: the product of qgamma_ratio(a_i+ref, sigma) over the product of
    qgamma_ratio(b_j+ref, sigma).

    Exact whenever the exponents sit on the half-integer grid and sigma is a
    nonnegative integer.  A lower exponent b_j+ref = 0 (with sigma > 0) is a
    lower-parameter collision, as in the series itself.
    """
    if sigma < 0:
        raise ValueError("sigma must be a nonnegative integer")
    result = q.one
    for ai in a:
        result = result * qgamma_ratio(ai + ref_mu, sigma, q)
    for bj in b:
        if sigma and bj + ref_mu == 0:      # caught before qgamma_ratio's pole
            raise CollisionError(
                f"lower parameter collision: (q^(b+mu); q)_{sigma} vanishes at "
                f"b={bj}, mu={ref_mu}"
            )
        result = result / qgamma_ratio(bj + ref_mu, sigma, q)
    return result


def g_series(a: Sequence, b: Sequence, mu, q: QBase, order: int, *,
             ref_mu=None, absolute: bool = False) -> TruncatedSeries:
    """The Gamma_q-normalized series in x, with the (q-1)^(1+s-t) argument
    factor absorbed into the coefficients.

    Coefficient n equals

        prefactor * (q^(a+mu); q)_n / ((q^(b+mu); q)_n (q; q)_n)
                  * q^((1+s-t) binom(n,2)) * (1-q)^((1+s-t) n),

    so for nonnegative a, b, mu all raw coefficients are positive and the
    natural evaluation points are x >= 0.

    a, b, mu and ``ref_mu`` are exact rationals in both modes.  The Gamma
    prefactor is carried relative to the reference shift ``ref_mu``
    (default: mu itself, making the prefactor 1); mu must exceed the
    reference by a nonnegative integer.  ``absolute=True`` computes the true
    Gamma ratio and needs float mode.
    """
    a, b, mu = _validate_g_params(a, b, mu)
    t, s = len(a), len(b)
    d = 1 + s - t

    if absolute:
        if q.is_exact:
            raise ExactModeError(
                "the absolute Gamma prefactor is transcendental; use ref_mu "
                "or a float QBase"
            )
        prefactor = q.one
        for ai in a:
            prefactor = prefactor * qgamma(ai + mu, q)
        for bj in b:
            prefactor = prefactor / qgamma(bj + mu, q)
    else:
        ref = mu if ref_mu is None else as_fraction(ref_mu)
        sigma = mu - ref
        if sigma.denominator != 1 or sigma < 0:
            raise HypothesisError(
                f"mu must exceed ref_mu by a nonnegative integer, got shift {sigma}"
            )
        prefactor = g_relative_prefactor(a, b, ref, int(sigma), q)

    upper = tuple(q.q_power(ai + mu) for ai in a)
    lower = tuple(q.q_power(bj + mu) for bj in b)
    return TermRatio(prefactor, upper, lower, q, d, 1 - q.q).series(order)


def geometric_tail_order(x_abs: FloatScalar, tol: FloatScalar, *, minimum: int = 40,
                         cap: int = 200_000) -> int:
    """Order N with x^N / (1-x) below tol, for series with bounded coefficients."""
    with mpmath.workdps(30):
        xv = mpmath.mpf(x_abs.val)
        if xv <= 0:
            return minimum
        if xv >= 1:
            raise DomainError("geometric tail needs |x| < 1")
        n = mpmath.log(mpmath.mpf(tol.val) * (1 - xv)) / mpmath.log(xv)
        n = int(mpmath.ceil(n)) + 4
    return min(max(n, minimum), cap)


def _float_only(q: QBase, what: str):
    if q.is_exact:
        raise ExactModeError(f"{what} evaluates infinite products; use float mode")


def _jackson_qbessel(name: str, alpha, y, q: QBase, order: int, d: int) -> Scalar:
    """The body both Jackson q-Bessel functions share:

        (y/2)^alpha (b; q)_infty / (q; q)_infty * sum_n c_n z^n,  b = q^(alpha+1),

    where c_n / c_(n-1) = q^(d(n-1)) / ((1 - q^n)(1 - b q^(n-1))) and
    z = -y^2/4, times b when d = 2 (float mode).

    At alpha = -k, k >= 1 an integer, (b; q)_infty vanishes where the sum's
    lower factor does; the limit is (-1)^k times the value at alpha = k
    (shift the index n = k + j).
    """
    _float_only(q, name)
    y = q.scalar(y)
    if d == 0 and not abs(y) < FloatScalar(2, q.digits):     # J1's sum needs |z| < 1
        raise DomainError(f"{name} needs |y| < 2")
    alpha_s = q.scalar(alpha)
    integer_alpha = alpha_s.val == int(alpha_s.val)
    if integer_alpha and alpha_s.val < 0:
        k = -int(alpha_s.val)
        return _jackson_qbessel(name, k, y, q, order, d) * (-1) ** k
    if y.is_zero():
        if alpha_s.is_zero():
            return q.one
        if alpha_s > 0:
            return q.zero
        raise DomainError(f"{name} diverges at y=0 for alpha < 0")
    if y.val < 0 and not integer_alpha:
        raise DomainError("negative y needs integer alpha")
    b = q.q ** (alpha_s + 1)
    qq_inf = q.held_qq_inf()
    # at alpha = 0, b = q and (b; q)_inf is the held product: the same call
    b_inf = qq_inf if b == q.q else qpochhammer_infinite(b, q)
    prefactor = ((y / 2) ** alpha_s) * b_inf / qq_inf
    terms = TermRatio(q.one, (), (b,), q, d, q.one).series(order)
    z = -(y * y) * b / 4 if d else -(y * y) / 4
    return prefactor * terms.eval(z)


def qbessel_j1(alpha, y, q: QBase, order: int) -> Scalar:
    """First Jackson q-Bessel function at y, for |y| < 2 (float mode)."""
    return _jackson_qbessel("qbessel_j1", alpha, y, q, order, 0)


def qbessel_j2(alpha, y, q: QBase, order: int) -> Scalar:
    """Second Jackson q-Bessel function at y (entire in y; float mode)."""
    return _jackson_qbessel("qbessel_j2", alpha, y, q, order, 2)


def modified_qbessel_i1(nu, y, q: QBase, order: int) -> Scalar:
    """First modified q-Bessel function at y in (0, 2), nu > -1 (float mode)."""
    _float_only(q, "modified_qbessel_i1")
    y = q.scalar(y)
    if not (FloatScalar(0, q.digits) < y and y < FloatScalar(2, q.digits)):
        raise DomainError("modified_qbessel_i1 needs 0 < y < 2")
    nu_s = q.scalar(nu)
    nv = nu_s.val
    if nv <= -1:
        if nv == int(nv):
            raise PoleError(f"Gamma_q pole at nu={nv}")
        raise DomainError("modified_qbessel_i1 needs nu > -1")
    terms = TermRatio(q.one, (), (q.q ** (nu_s + 1),), q).series(order)
    scale = ((y / 2) ** nu_s) / (((1 - q.q) ** nu_s) * qgamma(nu_s + 1, q))
    return scale * terms.eval((y / 2) ** 2)


def _kummer_bottom(b) -> Fraction:
    """b as a Fraction; PoleError when it is an integer <= 0, where (b)_n
    vanishes for some n."""
    bf = as_fraction(b)
    if bf.denominator == 1 and bf <= 0:
        raise PoleError(f"1F1 bottom parameter pole at b={bf}")
    return bf


def kummer_1f1_unit_top(b, order: int) -> TruncatedSeries:
    """1F1(1; b; x) as a truncated series: coefficient n = 1/(b)_n (exact)."""
    bf = _kummer_bottom(b)
    coeffs = [ex(1)]
    c = ex(1)
    for n in range(1, order + 1):
        c = c / ex(bf + (n - 1))
        coeffs.append(c)
    return TruncatedSeries(tuple(coeffs), order)


def kummer_1f1_value(b: Fraction, x: FloatScalar, digits: int) -> FloatScalar:
    """Float evaluation of 1F1(1; b; x) by direct summation; DomainError
    when the sum has not converged after 10 * digits + 200 terms."""
    _kummer_bottom(b)
    limit = 10 * digits + 200
    with mpmath.workdps(digits):
        bv = mpmath.mpf(b.numerator) / b.denominator
        total = mpmath.mpf(1)
        term = mpmath.mpf(1)
        n = 0
        while n < limit:
            term = term * x.val / (bv + n)
            total += term
            n += 1
            if abs(term) < mpmath.mpf(10) ** (-digits - 8) * max(abs(total), 1):
                break
        else:
            raise DomainError(f"1F1(1; b; x) at b={b}, x={mpmath.nstr(x.val, 15)} "
                              f"has not converged after {limit} terms")
    return FloatScalar(total, digits)
