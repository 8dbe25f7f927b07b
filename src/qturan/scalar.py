"""Scalar backends.

Every numeric quantity in this package is either an :class:`ExactScalar`
(an element of Q or of the real quadratic field Q(sqrt(r)) for a fixed
rational radicand r) or a :class:`FloatScalar` (an arbitrary-precision
mpmath float tagged with its working precision in decimal digits).

Float arithmetic calls ``mpmath.libmp`` on the raw ``_mpf_`` tuples at
``dps_to_prec(max digits)`` bits, rounding to nearest, which gives the same
bits as mpmath's context arithmetic under ``workdps(max digits)`` without
entering a context per operation.

The two backends never mix: combining an exact value with a float value in
one operation raises :class:`ModeMismatchError` instead of silently
demoting.  Plain ``int`` and :class:`~fractions.Fraction` operands are
mode-neutral literals and coerce into either backend; Python ``float``
operands are refused on the exact side because they carry binary rounding.
"""

from __future__ import annotations

import functools
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

import mpmath
from mpmath.libmp import (
    ComplexResult,
    dps_to_prec,
    from_int,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_pow_int,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
)

DEFAULT_DIGITS = 50

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def _exact_sqrt(r: Fraction) -> Fraction | None:
    """Return sqrt(r) if it is rational, else None."""
    if r < 0:
        raise DomainError("negative radicand")
    num, den = r.numerator, r.denominator
    sn, sd = isqrt(num), isqrt(den)
    if sn * sn == num and sd * sd == den:
        return Fraction(sn, sd)
    return None


def _fraction_sum(terms) -> Fraction:
    """Sum of the fractions n/d given as integer pairs (n, d), d > 0: the
    numerators summed over the lcm of the denominators, reduced once.

    The terms are merged pairwise in a balanced tree, each merge over the
    lcm of its two denominators, so most lcm steps are on short
    denominators even when they do not nest.
    """
    if not terms:
        return _ZERO
    while len(terms) > 1:
        merged = []
        for (n1, d1), (n2, d2) in zip(terms[::2], terms[1::2]):
            if d1 == d2:
                merged.append((n1 + n2, d1))
            else:
                g = gcd(d1, d2)
                merged.append((n1 * (d2 // g) + n2 * (d1 // g), d1 // g * d2))
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    return Fraction(*terms[0])


class ExactScalar:
    """Exact value a + b*sqrt(rad); rad is None iff the value is rational."""

    __slots__ = ("a", "b", "rad")

    def __init__(self, a: Fraction, b: Fraction = _ZERO, rad: Fraction | None = None):
        if b == 0:
            rad = None
        elif rad is None:
            raise ValueError("irrational part without a radicand")
        self.a = a
        self.b = b
        self.rad = rad

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rational(x: RationalLike) -> "ExactScalar":
        return ExactScalar(as_fraction(x))

    @staticmethod
    def sqrt_of(r: RationalLike) -> "ExactScalar":
        """Exact square root of a nonnegative rational."""
        rf = as_fraction(r)
        root = _exact_sqrt(rf)
        if root is not None:
            return ExactScalar(root)
        return ExactScalar(_ZERO, _ONE, rf)

    # -- coercion helpers ----------------------------------------------

    @staticmethod
    def _coerce(other) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar(as_fraction(other))
        if isinstance(other, FloatScalar):
            raise ModeMismatchError("cannot combine exact and float scalars")
        if isinstance(other, float):
            raise ModeMismatchError("refusing a binary float in exact arithmetic")
        raise TypeError(f"unsupported operand {other!r}")

    def _join_rad(self, other: "ExactScalar") -> Fraction | None:
        if self.rad is None:
            return other.rad
        if other.rad is None or other.rad == self.rad:
            return self.rad
        raise ModeMismatchError(
            f"incompatible radicands sqrt({self.rad}) and sqrt({other.rad})"
        )

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return ExactScalar(self.a + o.a, self.b + o.b, self._join_rad(o))

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(-self.a, -self.b, self.rad)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        o = self._coerce(other)
        rad = self._join_rad(o)
        a = self.a * o.a
        if self.b != 0 and o.b != 0:
            a += self.b * o.b * rad
        b = self.a * o.b + self.b * o.a
        return ExactScalar(a, b, rad)

    __rmul__ = __mul__

    @staticmethod
    def dot(xs, ys) -> "ExactScalar":
        """Sum of x*y over the pairs of xs and ys, reduced once.

        The rational and sqrt(rad) parts of every product are kept as
        unreduced integer fractions; each part's numerators are summed over
        the lcm of its denominators and the sum is reduced by one gcd.  When
        the products' sqrt parts share one radicand, the result equals the
        left-to-right sum of the products; products with sqrt parts over
        different radicands raise ModeMismatchError, as ``*`` does for
        factors over different radicands.
        """
        rad = None
        a_terms, b_terms = [], []
        for x, y in zip(xs, ys):
            if type(x) is not ExactScalar or type(y) is not ExactScalar:
                x, y = ExactScalar._coerce(x), ExactScalar._coerce(y)
            xa, ya, xb, yb = x.a, y.a, x.b, y.b
            if xa and ya:
                a_terms.append((xa.numerator * ya.numerator,
                                xa.denominator * ya.denominator))
            if not ((xb and (ya or yb)) or (yb and xa)):
                continue                # the product is rational
            r = x._join_rad(y)
            if rad is None:
                rad = r
            elif r != rad:
                raise ModeMismatchError(
                    f"incompatible radicands sqrt({rad}) and sqrt({r})")
            if xb and yb:
                a_terms.append((xb.numerator * yb.numerator * r.numerator,
                                xb.denominator * yb.denominator * r.denominator))
            if xb and ya:
                b_terms.append((xb.numerator * ya.numerator,
                                xb.denominator * ya.denominator))
            if xa and yb:
                b_terms.append((xa.numerator * yb.numerator,
                                xa.denominator * yb.denominator))
        return ExactScalar(_fraction_sum(a_terms), _fraction_sum(b_terms), rad)

    def inverse(self) -> "ExactScalar":
        if self.b == 0:
            if self.a == 0:
                raise ZeroDivisionError("inverse of exact zero")
            return ExactScalar(1 / self.a)
        norm = self.a * self.a - self.b * self.b * self.rad
        if norm == 0:
            raise ZeroDivisionError("inverse of exact zero")
        return ExactScalar(self.a / norm, -self.b / norm, self.rad)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exact powers take integer exponents")
        if n < 0:
            return self.inverse() ** (-n)
        result = ExactScalar(_ONE)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- order and predicates --------------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        sa = 1 if a > 0 else -1
        sb = 1 if b > 0 else -1
        if sa == sb:
            return sa
        # a and b*sqrt(rad) compete; compare squared magnitudes
        aa, bb = a * a, b * b * self.rad
        if aa == bb:
            return 0
        return sa if aa > bb else sb

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def to_fraction(self) -> Fraction:
        if self.b != 0:
            raise ExactModeError(f"{self} is irrational")
        return self.a

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        if isinstance(other, FloatScalar):
            return NotImplemented
        try:
            o = self._coerce(other)
        except (TypeError, ModeMismatchError):
            return NotImplemented
        if self.b != 0 and o.b != 0 and self.rad != o.rad:
            return False
        return self.a == o.a and self.b == o.b

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).sign() >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.rad))

    def __bool__(self):
        return not self.is_zero()

    # -- export ----------------------------------------------------------

    def to_mpf(self, digits: int = DEFAULT_DIGITS):
        with mpmath.workdps(digits):
            val = mpmath.mpf(self.a.numerator) / self.a.denominator
            if self.b != 0:
                rt = mpmath.sqrt(mpmath.mpf(self.rad.numerator) / self.rad.denominator)
                val += (mpmath.mpf(self.b.numerator) / self.b.denominator) * rt
        return val

    def to_float_scalar(self, digits: int = DEFAULT_DIGITS) -> "FloatScalar":
        return FloatScalar(self.to_mpf(digits), digits)

    def canonical(self) -> str:
        """Deterministic text form: 'num/den' or 'a+b*sqrt(r)'."""
        if self.b == 0:
            return rational_text(self.a)
        sign = "-" if self.b < 0 else "+"
        return (f"{rational_text(self.a)}{sign}{rational_text(abs(self.b))}"
                f"*sqrt({rational_text(self.rad)})")

    def __repr__(self):
        return f"ExactScalar({self.canonical()})"

    @property
    def mode(self) -> str:
        return "exact"


class FloatScalar:
    """Arbitrary-precision float tagged with its precision in decimal digits.

    ``val`` is an mpmath ``mpf``.  ``+ - * /``, their reflected forms,
    integer ``**``, ``sqrt`` and ``dot`` call ``mpmath.libmp`` on the raw
    ``_mpf_`` tuples at ``dps_to_prec(max digits)`` bits, rounding to
    nearest: the same bits as mpmath's context arithmetic under
    ``workdps(max digits)``, without entering a context per operation.  An
    ``int`` operand is rounded to that precision first, as ``mpf(n)`` is;
    other literals go through the constructor at the scalar's digits.
    Unary ``-`` and ``abs`` negate the ``mpf`` at the working precision in
    effect, as ``-mpf`` does, so outside a ``workdps`` block at least as
    wide as ``digits`` they round to it.
    """

    __slots__ = ("val", "digits")

    def __init__(self, value, digits: int = DEFAULT_DIGITS):
        if isinstance(value, ExactScalar):
            raise ModeMismatchError("wrap exact scalars via .to_float_scalar()")
        self.digits = digits
        with mpmath.workdps(digits):
            if isinstance(value, Fraction):
                self.val = mpmath.mpf(value.numerator) / value.denominator
            elif isinstance(value, str):
                self.val = mpmath.mpf(value)
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
        """Sum of x*y over the pairs of xs and ys, left to right.

        Each product rounds at the larger digits of its factors and each
        partial sum at the running maximum, as ``acc + x*y`` does.
        """
        acc = None
        for x, y in zip(xs, ys):
            if type(x) is not FloatScalar:
                x = y._coerce(x)
            elif type(y) is not FloatScalar:
                y = x._coerce(y)
            dx, dy = x.digits, y.digits
            d = dx if dx >= dy else dy
            p = mpf_mul(x.val._mpf_, y.val._mpf_, _prec(d), round_nearest)
            if acc is None:
                acc, digits = p, d
            else:
                if d > digits:
                    digits = d
                acc = mpf_add(acc, p, _prec(digits), round_nearest)
        if acc is None:
            raise ValueError("dot of empty vectors")
        return _float(acc, digits)

    def __neg__(self):
        # rounds at the working precision in effect (see the class docstring)
        return FloatScalar(-self.val, self.digits)

    def __abs__(self):
        return FloatScalar(abs(self.val), self.digits)

    def __pow__(self, n):
        if isinstance(n, int):
            return _float(mpf_pow_int(self.val._mpf_, n, _prec(self.digits), round_nearest),
                          self.digits)
        o = self._coerce(n)
        d = max(self.digits, o.digits)
        with mpmath.workdps(d):
            return FloatScalar(mpmath.power(self.val, o.val), d)

    def sqrt(self) -> "FloatScalar":
        try:
            t = mpf_sqrt(self.val._mpf_, _prec(self.digits), round_nearest)
        except ComplexResult:
            raise DomainError(f"square root of a negative float {self!r}") from None
        return _float(t, self.digits)

    def exp(self) -> "FloatScalar":
        with mpmath.workdps(self.digits):
            return FloatScalar(mpmath.exp(self.val), self.digits)

    def log(self) -> "FloatScalar":
        with mpmath.workdps(self.digits):
            return FloatScalar(mpmath.log(self.val), self.digits)

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

    def canonical(self) -> str:
        return mpmath.nstr(self.val, self.digits, strip_zeros=False)

    def __repr__(self):
        return f"FloatScalar({mpmath.nstr(self.val, min(self.digits, 20))}, digits={self.digits})"

    @property
    def mode(self) -> str:
        return "float"


_prec = functools.cache(dps_to_prec)   # binary precision of a digits count
_make_mpf = mpmath.mp.make_mpf
_new = object.__new__


def _float(t, digits: int) -> FloatScalar:
    """FloatScalar of the raw mpf t, already rounded at dps_to_prec(digits)."""
    s = _new(FloatScalar)
    s.val = _make_mpf(t)
    s.digits = digits
    return s


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
