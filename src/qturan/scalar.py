"""Scalar backends.

Every numeric quantity in this package is either an :class:`ExactScalar`
(an element of Q or of the real quadratic field Q(sqrt(r)) for a fixed
rational radicand r) or a :class:`FloatScalar` (an arbitrary-precision
mpmath float tagged with its precision in decimal digits).

An exact value is held on Python integers, (n + m*sqrt(rad)) / d in lowest
terms, not as Fraction objects, and each operation reduces once: a product
with a rational factor by the two cross gcds (as ``Fraction`` does); a sum,
a product of two irrationals and an inverse by one gcd of three integers,
which for a product with a short factor starts from a short multiple of
every common factor; adding an ``int`` not at all; ``dot`` once per sum.
``sign`` compares n^2 with m^2 rad in integers, and ``<`` on two
rationals compares the cross products n1 d2 and n2 d1.

Every float operation is one ``mpmath.libmp`` call on the raw ``_mpf_``
tuples at ``dps_to_prec(max digits)`` bits of its operands, rounding to
nearest, which gives the same bits as mpmath's context arithmetic under
``workdps(max digits)`` without entering a context per operation.  The
term-ratio recurrence and Horner's rule run whole loops on the raw tuples,
with the bits of the same loops on the operators.  The float Cauchy kernel
rounds once per coefficient: ``dot`` sums the exact products of the
integer mantissas, and ``convolve`` takes every such sum of a series
product from ``_cauchy_sums``, the one packed Cauchy product that the
exact certificates' enclosures share, while the mantissas of both
sequences span at most ``_PACK_BITS`` bits together.  So a float result
depends on its operands' digits only: mpmath's global precision changes no
output.

The two backends never mix: combining an exact value with a float value in
one operation raises :class:`ModeMismatchError` instead of silently
demoting.  Plain ``int`` and :class:`~fractions.Fraction` operands are
mode-neutral literals and coerce into either backend; Python ``float``
operands are refused on the exact side because they carry binary rounding.
"""

from __future__ import annotations

import functools
import sys
from decimal import ROUND_DOWN, Context, Decimal
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Union

import mpmath
from mpmath.libmp import (
    ComplexResult,
    dps_to_prec,
    from_int,
    from_man_exp,
    from_rational,
    fone,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_mul,
    mpf_neg,
    mpf_pow,
    mpf_pow_int,
    mpf_sqrt,
    mpf_sub,
    round_down,
    round_nearest,
)

DEFAULT_DIGITS = 50

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf

_new = object.__new__


class QTuranError(Exception):
    """Base class for every error raised by this package."""


class ModeMismatchError(QTuranError):
    """Exact and float values (or incompatible radicands) were combined."""


class ExactModeError(QTuranError):
    """The requested value is not exactly representable; use float mode."""


class OffGridError(QTuranError):
    """An exponent is off the half-integer grid in exact mode."""


class PoleError(QTuranError):
    """Evaluation at a pole of the q-Gamma function."""


class DomainError(QTuranError):
    """Argument outside the domain of validity."""


class CollisionError(QTuranError):
    """A lower series parameter makes a denominator factor vanish."""


class DimensionError(QTuranError):
    """Vector sizes violate an operation's dimensional hypothesis."""


class HypothesisError(QTuranError):
    """Parameters violate the hypotheses of the certified statement."""


RationalLike = Union[int, Fraction, str]


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce an exact literal (int, Fraction, or 'num/den' string) to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational literal: {x!r}")


def rational_text(x: Fraction) -> str:
    """'num/den' (or 'num') text of a rational, as ``str`` gives it.

    The digits come from :class:`~decimal.Decimal`, which is exempt from
    Python's limit on int-to-str conversion (4300 digits by default), so
    coefficients of high-order exact series print whatever their size.
    """
    return _ratio_text(x.numerator, x.denominator)


def _ratio_text(n: int, d: int) -> str:
    """:func:`rational_text` of n/d, for n and d > 0 already in lowest terms."""
    num = str(Decimal(n))
    return num if d == 1 else f"{num}/{Decimal(d)}"


def _exact_sqrt(r: Fraction) -> Fraction | None:
    """Return sqrt(r) if it is rational, else None."""
    if r < 0:
        raise DomainError("negative radicand")
    num, den = r.numerator, r.denominator
    sn, sd = isqrt(num), isqrt(den)
    if sn * sn == num and sd * sd == den:
        return Fraction(sn, sd)
    return None


def _join(r1, r2):
    """The radicand of a result whose operands carry r1 and r2 (None for a
    rational operand); two different radicands raise ModeMismatchError."""
    if r1 is None or r1 is r2:
        return r2
    if r2 is None or r1 == r2:
        return r1
    raise ModeMismatchError(f"incompatible radicands sqrt({r1}) and sqrt({r2})")


def _exact(n: int, m: int, d: int, rad) -> "ExactScalar":
    """(n + m sqrt(rad)) / d from integers already in lowest terms, d > 0."""
    s = _new(ExactScalar)
    s.n, s.m, s.d, s.rad = n, m, d, rad if m else None
    return s


def _reduced(n: int, m: int, d: int, rad) -> "ExactScalar":
    """(n + m sqrt(rad)) / d for any d != 0, reduced by one gcd of the three."""
    g = gcd(d, n, m)
    if d < 0:
        g = -g
    if g != 1:
        n, m, d = n // g, m // g, d // g
    return _exact(n, m, d, rad)


def _sum(x: "ExactScalar", n2: int, m2: int, d2: int, r2) -> "ExactScalar":
    """x + (n2 + m2 sqrt(r2)) / d2 over the lcm of the denominators.

    With g = gcd(d1, d2), a prime that divides the sum's numerators and
    denominator divides g, so g (not the lcm) is what the one gcd runs on.
    """
    rad = _join(x.rad, r2)
    n1, m1, d1 = x.n, x.m, x.d
    g = gcd(d1, d2)
    s, u = d1 // g, d2 // g
    n, m = n1 * u + n2 * s, m1 * u + m2 * s
    h = gcd(g, n, m)
    if h != 1:
        n, m, g = n // h, m // h, g // h
    return _exact(n, m, s * u * g, rad)


def _scale(n: int, m: int, d: int, k: int, e: int, rad) -> "ExactScalar":
    """(n + m sqrt(rad)) / d times the rational k / e (e > 0, both in lowest
    terms), reduced by the two cross gcds, as ``Fraction`` reduces a
    product."""
    if not k:
        return _exact(0, 0, 1, None)
    g = gcd(k, d)
    if g != 1:
        k, d = k // g, d // g
    g = gcd(e, n, m)
    if g != 1:
        e, n, m = e // g, n // g, m // g
    return _exact(n * k, m * k, d * e, rad)


def _common_sum(terms: list) -> tuple:
    """(N, M, D) with N/D and M/D the sums of the terms (n, m, d), d > 0: the
    numerators summed over the lcm of the denominators, unreduced.

    The terms are merged pairwise in a balanced tree, each merge over the
    lcm of its two denominators, so most lcm steps are on short
    denominators even when they do not nest.
    """
    while len(terms) > 1:
        merged = []
        for (n1, m1, d1), (n2, m2, d2) in zip(terms[::2], terms[1::2]):
            if d1 == d2:
                merged.append((n1 + n2, m1 + m2, d1))
            else:
                g = gcd(d1, d2)
                s, u = d1 // g, d2 // g
                merged.append((n1 * u + n2 * s, m1 * u + m2 * s, s * d2))
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    return terms[0]


class ExactScalar:
    """Exact value (n + m*sqrt(rad)) / d on Python integers.

    The fields are in lowest terms: d > 0, gcd(n, m, d) = 1, and the
    radicand ``rad`` (a positive Fraction) is None iff m = 0, so each value
    has one representation.  ``a`` = n/d and ``b`` = m/d are its rational
    and sqrt(rad) parts as reduced Fractions.
    """

    __slots__ = ("n", "m", "d", "rad")

    def __init__(self, a: RationalLike, b: RationalLike = 0,
                 rad: RationalLike | None = None):
        a, b = as_fraction(a), as_fraction(b)
        if b == 0:
            rad = None
        elif rad is None:
            raise ValueError("irrational part without a radicand")
        else:
            rad = as_fraction(rad)
        # over the lcm of two reduced denominators the three ints are coprime
        d = lcm(a.denominator, b.denominator)
        self.n = a.numerator * (d // a.denominator)
        self.m = b.numerator * (d // b.denominator)
        self.d = d
        self.rad = rad

    @property
    def a(self) -> Fraction:
        """The rational part n/d."""
        return Fraction(self.n, self.d)

    @property
    def b(self) -> Fraction:
        """The coefficient m/d of sqrt(rad)."""
        return Fraction(self.m, self.d)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rational(x: RationalLike) -> "ExactScalar":
        x = as_fraction(x)
        return _exact(x.numerator, 0, x.denominator, None)

    @staticmethod
    def sqrt_of(r: RationalLike) -> "ExactScalar":
        """Exact square root of a nonnegative rational."""
        rf = as_fraction(r)
        root = _exact_sqrt(rf)
        if root is not None:
            return ExactScalar.from_rational(root)
        return _exact(0, 1, 1, rf)

    # -- coercion helpers ----------------------------------------------

    @staticmethod
    def _coerce(other) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar.from_rational(other)
        if isinstance(other, FloatScalar):
            raise ModeMismatchError("cannot combine exact and float scalars")
        if isinstance(other, float):
            raise ModeMismatchError("refusing a binary float in exact arithmetic")
        raise TypeError(f"unsupported operand {other!r}")

    # -- ring operations -----------------------------------------------
    # Adding an int keeps gcd(n, m, d) = 1, so it needs no reduction.

    def __add__(self, other):
        if type(other) is int:
            return _exact(self.n + other * self.d, self.m, self.d, self.rad)
        o = other if type(other) is ExactScalar else self._coerce(other)
        return _sum(self, o.n, o.m, o.d, o.rad)

    __radd__ = __add__

    def __neg__(self):
        return _exact(-self.n, -self.m, self.d, self.rad)

    def __sub__(self, other):
        if type(other) is int:
            return _exact(self.n - other * self.d, self.m, self.d, self.rad)
        o = other if type(other) is ExactScalar else self._coerce(other)
        return _sum(self, -o.n, -o.m, o.d, o.rad)

    def __rsub__(self, other):
        if type(other) is int:
            return _exact(other * self.d - self.n, -self.m, self.d, self.rad)
        return self._coerce(other) - self

    def __mul__(self, other):
        if type(other) is int:
            return _scale(self.n, self.m, self.d, other, 1, self.rad)
        o = other if type(other) is ExactScalar else self._coerce(other)
        n1, m1, d1 = self.n, self.m, self.d
        n2, m2, d2 = o.n, o.m, o.d
        if not m2:
            return _scale(n1, m1, d1, n2, d2, self.rad)
        if not m1:
            return _scale(n2, m2, d2, n1, d1, o.rad)
        rad = _join(self.rad, o.rad)
        rn, rd = rad.numerator, rad.denominator
        n, m, d = n1 * n2 * rd + m1 * m2 * rn, (n1 * m2 + m1 * n2) * rd, d1 * d2 * rd
        # The product reduces by g = gcd(n, m, d).  Let B = (nB + mB sqrt(r)) /
        # dB be the factor of shorter denominator, A the other, and nu =
        # nB^2 rd - mB^2 rn.  Since n + m sqrt(r) = d A B and (nB - mB sqrt(r))
        # B dB = nu / rd, (n + m sqrt(r)) (nB - mB sqrt(r)) = (nA + mA sqrt(r)) nu:
        # nA nu rd = n nB rd - m mB rn and mA nu = m nB - n mB.  So a prime
        # power dividing n, m and d = dA dB rd divides nA nu rd, mA nu and
        # dA dB rd, and as gcd(nA, mA, dA) = 1 the prime misses one of nA, mA
        # and dA: the power divides nu rd or dB rd, hence K = dB rd |nu|, and
        # g = gcd(K, n, m, d).  K is the shorter start when its size, about
        # 2 max(bits(nB), bits(mB)) beyond that of dB rd, is below bits(dA).
        bits1, bits2 = d1.bit_length(), d2.bit_length()
        nb, mb, db, bits = (n1, m1, d1, bits2) if bits1 < bits2 else (n2, m2, d2, bits1)
        if 2 * nb.bit_length() < bits > 2 * mb.bit_length():
            g = gcd(db * rd * abs(nb * nb * rd - mb * mb * rn), n, m, d)
        else:
            g = gcd(d, n, m)
        if g != 1:
            n, m, d = n // g, m // g, d // g
        return _exact(n, m, d, rad)

    __rmul__ = __mul__

    @staticmethod
    def dot(xs, ys) -> "ExactScalar":
        """Sum of x*y over the pairs of xs and ys, reduced once.

        Every product stays an unreduced triple of integers (n, m, d); the
        triples are summed over the lcm of their denominators and the sum is
        reduced by one gcd.  When the products' sqrt parts share one
        radicand, the result equals the left-to-right sum of the products;
        products with sqrt parts over different radicands raise
        ModeMismatchError, as ``*`` does for factors over different
        radicands.
        """
        rad = None
        terms = []
        for x, y in zip(xs, ys):
            if type(x) is not ExactScalar or type(y) is not ExactScalar:
                x, y = ExactScalar._coerce(x), ExactScalar._coerce(y)
            xn, xm, yn, ym = x.n, x.m, y.n, y.m
            if not ((xm and (yn or ym)) or (ym and xn)):
                if xn and yn:           # the product is rational
                    terms.append((xn * yn, 0, x.d * y.d))
                continue
            r = _join(x.rad, y.rad)
            if rad is None:
                rad = r
                rn, rd = r.numerator, r.denominator
            elif r is not rad and r != rad:
                raise ModeMismatchError(
                    f"incompatible radicands sqrt({rad}) and sqrt({r})")
            terms.append((xn * yn * rd + xm * ym * rn, (xn * ym + xm * yn) * rd,
                          x.d * y.d * rd))
        if not terms:
            return _exact(0, 0, 1, None)
        return _reduced(*_common_sum(terms), rad)

    def inverse(self) -> "ExactScalar":
        n, m, d = self.n, self.m, self.d
        if not m:
            if not n:
                raise ZeroDivisionError("inverse of exact zero")
            return _exact(d, 0, n, None) if n > 0 else _exact(-d, 0, -n, None)
        # d / (n + m sqrt(r)) = d rd (n - m sqrt(r)) / (n^2 rd - m^2 rn)
        rad = self.rad
        rn, rd = rad.numerator, rad.denominator
        norm = n * n * rd - m * m * rn
        if not norm:
            raise ZeroDivisionError("inverse of exact zero")
        k = d * rd
        return _reduced(k * n, -k * m, norm, rad)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exact powers take integer exponents")
        if n < 0:
            return self.inverse() ** (-n)
        result = _exact(1, 0, 1, None)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- order and predicates --------------------------------------------

    def sign(self) -> int:
        n, m = self.n, self.m
        if not m:
            return (n > 0) - (n < 0)
        if not n or (n > 0) == (m > 0):
            return 1 if m > 0 else -1
        # n and m*sqrt(rad) compete: compare n^2 rd with m^2 rn
        rad = self.rad
        nn, mm = n * n * rad.denominator, m * m * rad.numerator
        if nn == mm:
            return 0
        return (1 if n > 0 else -1) if nn > mm else (1 if m > 0 else -1)

    def is_zero(self) -> bool:
        return not self.n and not self.m

    def is_rational(self) -> bool:
        return not self.m

    def to_fraction(self) -> Fraction:
        if self.m:
            raise ExactModeError(f"{self} is irrational")
        return Fraction(self.n, self.d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        if isinstance(other, FloatScalar):
            return NotImplemented
        try:
            o = self._coerce(other)
        except (TypeError, ModeMismatchError):
            return NotImplemented
        if self.m and o.m and self.rad != o.rad:
            return False
        return self.n == o.n and self.m == o.m and self.d == o.d

    def _compare(self, other) -> int:
        """The sign of self - other.  Two rationals compare n1 d2 with n2 d1,
        which is exact because d1, d2 > 0; a Q(sqrt r) operand goes through
        the difference."""
        o = other if type(other) is ExactScalar else self._coerce(other)
        if self.m or o.m:
            return (self - o).sign()
        left, right = self.n * o.d, o.n * self.d
        return (left > right) - (left < right)

    def __lt__(self, other):
        return self._compare(other) < 0

    def __le__(self, other):
        return self._compare(other) <= 0

    def __gt__(self, other):
        return self._compare(other) > 0

    def __ge__(self, other):
        return self._compare(other) >= 0

    def __hash__(self):
        n, d = self.n, self.d
        if self.m:
            rad = self.rad
            return hash((n, self.m, d, rad.numerator, rad.denominator))
        if d == 1:
            return hash(n)
        # the hash of the Fraction n/d: |n| / d modulo the hash prime, signed
        try:
            h = abs(n) % _HASH_MODULUS * pow(d, -1, _HASH_MODULUS) % _HASH_MODULUS
        except ValueError:              # d is a multiple of the prime
            h = _HASH_INF
        if n < 0:
            h = -h
        return -2 if h == -1 else h

    def __bool__(self):
        return not self.is_zero()

    # -- export ----------------------------------------------------------

    def to_mpf(self, digits: int = DEFAULT_DIGITS):
        """The mpf nearest this value at the binary precision of ``digits``.

        For m != 0, (n + m sqrt(rad)) 2^k lies in [lo, lo + 1] for integers
        lo found by ``isqrt``, and k grows until lo / (d 2^k) and (lo + 1) /
        (d 2^k) round to one mpf: rounding is monotone, so that is the
        value's.  Rounding the two parts apart would lose the digits they
        cancel."""
        prec = _prec(digits)
        n, m, d = self.n, self.m, self.d
        if not m:
            return _make_mpf(from_rational(n, d, prec, round_nearest))
        rn, rd = m * m * self.rad.numerator, self.rad.denominator
        k = max(prec + 10 - max(n.bit_length(), (rn.bit_length() - rd.bit_length()) // 2), 0)
        while True:
            y, rem = divmod(rn << 2 * k, rd)
            root = isqrt(y)                 # floor(|m| sqrt(rad) 2^k)
            up = int(rem != 0 or root * root != y)
            lo = (n << k) + (root if m > 0 else -root - up)
            ends = {from_rational(end, d << k, prec, round_nearest) for end in (lo, lo + up)}
            if len(ends) == 1:
                return _make_mpf(ends.pop())
            k += max(prec + 10 - abs(lo).bit_length(), 16)

    def to_float_scalar(self, digits: int = DEFAULT_DIGITS) -> "FloatScalar":
        return FloatScalar(self.to_mpf(digits), digits)

    def to_float_toward_zero(self, digits: int = DEFAULT_DIGITS) -> "FloatScalar":
        """This rational cut toward 0 to ``digits`` significant decimal
        digits, and that decimal held at the binary precision of ``digits``,
        rounded toward 0 too: both the value and the text it prints at
        ``digits`` lie between 0 and this number, so a bound on a magnitude
        from below stays one."""
        if self.m:
            raise ValueError("to_float_toward_zero takes a rational value")
        cut = Context(prec=digits, rounding=ROUND_DOWN).divide(Decimal(self.n), Decimal(self.d))
        return _float(from_rational(*cut.as_integer_ratio(), _prec(digits), round_down), digits)

    def canonical(self) -> str:
        """Deterministic text form: 'num/den' or 'a+b*sqrt(r)'."""
        if not self.m:
            return _ratio_text(self.n, self.d)
        b = self.b
        sign = "-" if b < 0 else "+"
        return (f"{rational_text(self.a)}{sign}{rational_text(abs(b))}"
                f"*sqrt({rational_text(self.rad)})")

    def __repr__(self):
        return f"ExactScalar({self.canonical()})"


class FloatScalar:
    """Arbitrary-precision float tagged with its precision in decimal digits.

    ``val`` is an mpmath ``mpf``.  Every arithmetic operation other than
    construction (``+ - * /`` and their reflected forms, unary ``-``,
    ``abs``, ``**``, ``sqrt`` and ``exp``) is one ``mpmath.libmp`` call on
    the raw ``_mpf_`` tuples at ``dps_to_prec(max digits)`` bits, rounding
    to nearest: the same bits as mpmath's context arithmetic under
    ``workdps(max digits)``, without entering a context per operation.  An
    ``int`` operand is rounded to that precision first, as ``mpf(n)`` is;
    other literals go through the constructor at the scalar's digits.
    ``dot`` and ``convolve``, the Cauchy kernel, sum exact mantissa products
    and round each sum once, to nearest, at the largest digits: more
    accurate than ``acc + x*y`` term by term, and not its bits.  ``arith``
    (the term-ratio recurrence of a float series) and ``horner`` (its
    evaluation) run whole loops on the raw tuples with the bits of the same
    loops on these operators, without a FloatScalar per step.
    """

    __slots__ = ("val", "digits")

    def __init__(self, value, digits: int = DEFAULT_DIGITS):
        if isinstance(value, ExactScalar):
            raise ModeMismatchError("wrap exact scalars via .to_float_scalar()")
        self.digits = digits
        with mpmath.workdps(digits):
            if isinstance(value, Fraction):
                self.val = mpmath.mpf(value.numerator) / value.denominator
            else:
                self.val = mpmath.mpf(value)

    def _coerce(self, other) -> "FloatScalar":
        if isinstance(other, FloatScalar):
            return other
        if isinstance(other, ExactScalar):
            raise ModeMismatchError("cannot combine float and exact scalars")
        return FloatScalar(other, self.digits)

    def _raw(self, other):
        """(raw mpf, digits) of an operand; a literal coerces at self.digits."""
        if type(other) is FloatScalar:
            return other.val._mpf_, other.digits
        if type(other) is int:
            return from_int(other, _prec(self.digits), round_nearest), self.digits
        o = self._coerce(other)
        return o.val._mpf_, o.digits

    def _bin(self, other, op, reflected=False):
        t, d = self._raw(other)
        if self.digits > d:
            d = self.digits
        s = self.val._mpf_
        if reflected:
            s, t = t, s
        return _float(op(s, t, _prec(d), round_nearest), d)

    def __add__(self, other):
        return self._bin(other, mpf_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._bin(other, mpf_sub)

    def __rsub__(self, other):
        return self._bin(other, mpf_sub, reflected=True)

    def __mul__(self, other):
        return self._bin(other, mpf_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._bin(other, mpf_div)

    def __rtruediv__(self, other):
        return self._bin(other, mpf_div, reflected=True)

    @staticmethod
    def dot(xs, ys) -> "FloatScalar":
        """Sum of x*y over the pairs of xs and ys, rounded once.

        The products of the operands' integer mantissas are summed exactly,
        and the sum is rounded to nearest at the largest digits of the
        operands: the result is the correctly rounded exact sum.  A literal
        coerces at its partner's digits; a pair with no FloatScalar is a
        TypeError.  Any inf or nan operand makes the result inf or nan, the
        libmp sum of the products.
        """
        terms = []
        digits = 0
        special = None
        for x, y in zip(xs, ys):
            if type(x) is not FloatScalar:
                if type(y) is not FloatScalar:
                    raise TypeError(f"FloatScalar.dot needs a FloatScalar in each "
                                    f"pair, got {x!r} and {y!r}")
                x = y._coerce(x)
            elif type(y) is not FloatScalar:
                y = x._coerce(y)
            d = x.digits if x.digits >= y.digits else y.digits
            if d > digits:
                digits = d
            s, t = x.val._mpf_, y.val._mpf_
            xsign, xman, xexp, _ = s
            ysign, yman, yexp, _ = t
            if xman and yman:
                man = xman * yman
                terms.append((-man if xsign ^ ysign else man, xexp + yexp))
            elif (xexp and not xman) or (yexp and not yman):
                special = mpf_add(special or fzero, mpf_mul(s, t, _prec(d), round_nearest),
                                  _prec(d), round_nearest)
        if not digits:
            raise ValueError("dot of empty vectors")
        if special is not None:
            return _float(special, digits)
        return _float(_rounded_sum(terms, _prec(digits)) if terms else fzero, digits)

    @staticmethod
    def convolve(xs, ys) -> list:
        """The Cauchy product of two coefficient sequences, truncated to the
        shorter: entry k is ``dot(xs[:k + 1], ys[k::-1])``, bit for bit.

        Each sequence's signed mantissas are moved onto its smallest
        exponent, ``_cauchy_sums`` gives every coefficient's exact sum by one
        big-integer multiplication, and each sum is rounded once.  The
        ``dot`` per coefficient runs instead when an entry is not a
        FloatScalar or is inf or nan, when the digits differ between the
        entries of a sequence, or when the mantissas of the two sequences
        together span more than ``_PACK_BITS`` bits (the d = 1 g series,
        which decay like q^(n^2/2)).
        """
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        px, py = _on_one_exponent(xs), _on_one_exponent(ys)
        if px is None or py is None or px[2] + py[2] > _PACK_BITS:
            return [FloatScalar.dot(xs[:k + 1], ys[k::-1]) for k in range(n)]
        (xm, xe, xbits, dx), (ym, ye, ybits, dy) = px, py
        d = dx if dx >= dy else dy
        prec, e = _prec(d), xe + ye
        return [_float(from_man_exp(s, e, prec, round_nearest), d)
                for s in _cauchy_sums(xm, ym, xbits + ybits)]

    @staticmethod
    def arith(digits: int) -> tuple:
        """The arithmetic ``TermRatio.series`` runs on a float base: (lift,
        mul, div, one_minus) on raw ``_mpf_`` tuples, each operation one
        ``mpmath.libmp`` call at ``dps_to_prec(digits)`` bits, rounding to
        nearest.  ``lift`` takes a FloatScalar's tuple and coerces a literal
        at ``digits``; ``_float(t, digits)`` wraps a result.  On operands of
        ``digits`` digits these are the bits of ``*``, ``/`` and ``1 - x``.
        """
        prec = _prec(digits)

        def lift(x):
            return (x if type(x) is FloatScalar else FloatScalar(x, digits)).val._mpf_

        def mul(s, t):
            return mpf_mul(s, t, prec, round_nearest)

        def div(s, t):
            return mpf_div(s, t, prec, round_nearest)

        def one_minus(t):
            return mpf_sub(fone, t, prec, round_nearest)

        return lift, mul, div, one_minus

    @staticmethod
    def horner(coeffs, x) -> "FloatScalar":
        """sum_n c_n x^n by Horner's rule, acc = acc * x + c from the top, on
        the raw tuples: each product and each sum rounds at the digits the
        operators would use (the largest of acc's, x's and c's), so the
        result has the bits of that operator loop.  A literal x coerces at
        acc's digits, as ``_raw`` does; a coefficient that is not a
        FloatScalar sends the whole sum through the operators.

        A step whose acc * x + c rounds back to acc is a fixed point: the
        next step with the same c tuple at the same precision is the same
        function of the same acc, so the loop skips such steps (the
        repeated tail of a d = 0 series, from where its working precision
        stops changing it) and keeps the bits.  A coefficient with more
        digits than acc raises the precision, and the fixed point is formed
        anew at it.
        """
        acc = coeffs[-1]
        if len(coeffs) == 1 or any([type(c) is not FloatScalar for c in coeffs]):
            for c in reversed(coeffs[:-1]):
                acc = acc * x + c
            return acc
        literal = type(x) is not FloatScalar
        t, d = acc._raw(x)
        if d < acc.digits:
            d = acc.digits
        prec, s = _prec(d), acc.val._mpf_
        fixed = None            # the c tuple of the last step, when it left s as it was
        for c in reversed(coeffs[:-1]):
            ct = c.val._mpf_
            if c.digits > d:
                s = mpf_mul(s, t, prec, round_nearest)
                d = c.digits
                prec = _prec(d)
                if literal:
                    t = _float(fzero, d)._raw(x)[0]
                s = mpf_add(s, ct, prec, round_nearest)
                fixed = None
            elif ct != fixed:
                step = mpf_add(mpf_mul(s, t, prec, round_nearest), ct, prec, round_nearest)
                fixed = ct if step == s else None
                s = step
        return _float(s, d)

    def __neg__(self):
        return _float(mpf_neg(self.val._mpf_, _prec(self.digits), round_nearest), self.digits)

    def __abs__(self):
        return _float(mpf_abs(self.val._mpf_, _prec(self.digits), round_nearest), self.digits)

    def __pow__(self, n):
        if isinstance(n, int):
            return _float(mpf_pow_int(self.val._mpf_, n, _prec(self.digits), round_nearest),
                          self.digits)
        try:
            return self._bin(n, mpf_pow)
        except ComplexResult:
            raise DomainError(f"non-integer power of a negative float {self!r}") from None

    def sqrt(self) -> "FloatScalar":
        try:
            t = mpf_sqrt(self.val._mpf_, _prec(self.digits), round_nearest)
        except ComplexResult:
            raise DomainError(f"square root of a negative float {self!r}") from None
        return _float(t, self.digits)

    def exp(self) -> "FloatScalar":
        return _float(mpf_exp(self.val._mpf_, _prec(self.digits), round_nearest), self.digits)

    def sign(self) -> int:
        if self.val == 0:
            return 0
        return 1 if self.val > 0 else -1

    def is_zero(self) -> bool:
        return self.val == 0

    def __eq__(self, other):
        if isinstance(other, ExactScalar):
            return NotImplemented
        try:
            return self.val == self._coerce(other).val
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self.val < self._coerce(other).val

    def __le__(self, other):
        return self.val <= self._coerce(other).val

    def __gt__(self, other):
        return self.val > self._coerce(other).val

    def __ge__(self, other):
        return self.val >= self._coerce(other).val

    def __hash__(self):
        return hash(self.val)

    def __bool__(self):
        return self.val != 0

    def to_mpf(self, digits: int | None = None):
        return self.val

    def __repr__(self):
        return f"FloatScalar({mpmath.nstr(self.val, min(self.digits, 20))}, digits={self.digits})"


_prec = functools.cache(dps_to_prec)   # binary precision of a digits count
_make_mpf = mpmath.mp.make_mpf


def _float(t, digits: int) -> FloatScalar:
    """FloatScalar of the raw mpf t, already rounded at dps_to_prec(digits)."""
    s = _new(FloatScalar)
    s.val = _make_mpf(t)
    s.digits = digits
    return s


# Terms whose bits span at most this many are summed on one exponent; wider
# sums go run by run, so that no integer grows as wide as their spread.
_SUM_SPAN = 1 << 15


def _rounded_sum(terms: list, prec: int) -> tuple:
    """The raw mpf nearest the exact sum of the nonzero dyadic terms
    (man, exp), each man 2^exp with a signed man, rounded once at prec bits.

    Terms spanning more than _SUM_SPAN bits are summed run by run, from the
    highest: sorted by their top bit, a run takes each next term whose top
    bit reaches within prec + 3 + log2(len(terms)) bits of the run's lowest
    bit.  Everything below a run then totals less than 2^-(prec+3) of that
    bit, so the first run with a nonzero sum gives the result up to a
    sticky unit whose sign is that of the next nonzero run.
    """
    e = min([x for _, x in terms])
    top = max([man.bit_length() + x for man, x in terms])
    if top - e <= _SUM_SPAN:
        return from_man_exp(sum([man << (x - e) for man, x in terms]), e, prec,
                            round_nearest)
    gap = prec + 3 + len(terms).bit_length()
    runs = []                           # [terms, their lowest exponent]
    for man, x in sorted(terms, key=lambda t: t[0].bit_length() + t[1], reverse=True):
        if runs and man.bit_length() + x >= runs[-1][1] - gap:
            runs[-1][0].append((man, x))
            runs[-1][1] = min(runs[-1][1], x)
        else:
            runs.append([[(man, x)], x])
    sums = [(t, low) for run, low in runs if (t := sum([m << (x - low) for m, x in run]))]
    if not sums:
        return fzero
    (lead, low), rest = sums[0], sums[1:]
    if rest:
        k = prec + 3
        lead, low = (lead << k) + (1 if rest[0][0] > 0 else -1), low - k
    return from_man_exp(lead, low, prec, round_nearest)


# A Cauchy product whose two sequences' mantissas, each on its own smallest
# exponent, have more bits than this in all goes through the dot loop: from
# about 1100-1300 bits on (at 50 digits, lengths 31-201) the one wide
# multiplication costs more than the dot loop's small ones.
_PACK_BITS = 1200


def _on_one_exponent(seq):
    """(the signed mantissas of seq on its smallest exponent, that exponent,
    their largest bit length, the digits), or None when seq cannot be
    packed: it is empty, an entry is not a FloatScalar or is inf or nan, or
    the digits differ between entries."""
    if not seq or any([type(x) is not FloatScalar for x in seq]):
        return None
    digits = seq[0].digits
    if any([x.digits != digits for x in seq]):
        return None
    raw = [x.val._mpf_ for x in seq]
    exps = [t[2] for t in raw if t[1]]
    if len(exps) < len(raw) and any([t[2] for t in raw if not t[1]]):
        return None                     # inf or nan: mantissa 0, exponent not 0
    if not exps:
        return [0] * len(raw), 0, 0, digits
    e = min(exps)
    bits = max([t[2] + t[3] for t in raw if t[1]]) - e
    return [(-m if s else m) << (x - e) if m else 0 for s, m, x, _ in raw], e, bits, digits


def _cauchy_sums(xs: list, ys: list, bits: int) -> list:
    """[sum_(i<=k) xs[i] ys[k-i] for k < n], the exact Cauchy sums of two lists
    of n signed ints whose products have at most ``bits`` bits, by one
    multiplication (Kronecker substitution) on byte slots wide enough for a
    signed sum of n products, read back signed: a negative slot borrowed 1."""
    n = len(xs)
    width = (bits + n.bit_length() + 8) // 8
    zero = bytes(width)

    def packed(mans):
        if min(mans) >= 0:
            return int.from_bytes(b"".join([m.to_bytes(width, "little") for m in mans]), "little")
        return (int.from_bytes(b"".join([m.to_bytes(width, "little") if m > 0 else zero
                                         for m in mans]), "little")
                - int.from_bytes(b"".join([(-m).to_bytes(width, "little") if m < 0 else zero
                                           for m in mans]), "little"))

    low = (packed(xs) * packed(ys)) & ((1 << 8 * width * n) - 1)
    buf = low.to_bytes(width * n, "little")
    sums = [int.from_bytes(buf[i:i + width], "little", signed=True)
            for i in range(0, width * n, width)]
    if min(sums) >= 0:
        return sums                     # no slot borrowed
    return [s + (below < 0) for s, below in zip(sums, [0] + sums)]


Scalar = Union[ExactScalar, FloatScalar]


def ex(x: RationalLike) -> ExactScalar:
    """Shorthand exact constructor."""
    return ExactScalar.from_rational(x)


def fl(x, digits: int = DEFAULT_DIGITS) -> FloatScalar:
    """Shorthand float constructor."""
    return FloatScalar(x, digits)


def one_like(s: Scalar) -> Scalar:
    return ex(1) if isinstance(s, ExactScalar) else FloatScalar(1, s.digits)


def zero_like(s: Scalar) -> Scalar:
    return ex(0) if isinstance(s, ExactScalar) else FloatScalar(0, s.digits)
