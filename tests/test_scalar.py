"""Backend behaviour: exactness, quadratic-field arithmetic, mode isolation."""

import math
import operator
import random
import sys
from fractions import Fraction as F

import mpmath
import pytest
from mpmath.libmp import dps_to_prec
from hypothesis import given, settings
from hypothesis import strategies as st

from qturan.scalar import (
    DEFAULT_DIGITS,
    DomainError,
    ExactScalar,
    FloatScalar,
    ModeMismatchError,
    ex,
    fl,
    rational_text,
)


def test_exact_arithmetic_is_closed():
    a = ex(F(1, 3))
    b = ex(F(2, 5))
    assert (a + b).to_fraction() == F(11, 15)
    assert (a * b).to_fraction() == F(2, 15)
    assert (a / b).to_fraction() == F(5, 6)
    assert ((a - b) ** 3).to_fraction() == F(-1, 3375)


def test_quadratic_field_arithmetic():
    r = F(1, 2)
    s = ExactScalar.sqrt_of(r)          # sqrt(1/2), irrational
    assert s.rad == r and s.b == 1
    assert (s * s).to_fraction() == r
    x = s + 1
    # (1 + s)(1 - s) = 1 - r
    assert (x * (1 - s)).to_fraction() == 1 - r
    inv = x.inverse()
    assert (x * inv).to_fraction() == 1
    # rational square roots collapse to plain rationals
    assert ExactScalar.sqrt_of(F(9, 16)).to_fraction() == F(3, 4)


def test_quadratic_sign_logic():
    s = ExactScalar.sqrt_of(F(2))
    assert (s - 1).sign() > 0            # sqrt2 > 1
    assert (s - 2).sign() < 0            # sqrt2 < 2
    assert (1 - s).sign() < 0
    assert (s - s).sign() == 0 and (s - s).is_zero()
    assert sorted([s, ex(1), ex(2)])[1] is s


def test_quadratic_sign_matches_float():
    import random
    rng = random.Random(5)
    for _ in range(100):
        a = F(rng.randint(-9, 9), rng.randint(1, 7))
        b = F(rng.randint(-9, 9), rng.randint(1, 7))
        v = ExactScalar(a, b, F(3, 4)) if b else ExactScalar(a)
        approx = v.to_mpf(40)
        want = 0 if approx == 0 else (1 if approx > 0 else -1)
        assert v.sign() == want


def test_mixed_mode_operations_raise():
    with pytest.raises(ModeMismatchError):
        ex(1) + fl(1)
    with pytest.raises(ModeMismatchError):
        fl(1) * ex(1)
    with pytest.raises(ModeMismatchError):
        ex(1) < fl(2)
    with pytest.raises(ModeMismatchError):
        ex(F(1, 2)) + 0.5
    # different radicands cannot combine either
    with pytest.raises(ModeMismatchError):
        ExactScalar.sqrt_of(F(2)) + ExactScalar.sqrt_of(F(3))


def test_float_precision_default():
    x = fl(1) / 3
    assert x.digits == DEFAULT_DIGITS >= 50
    # 1/3 carried to at least 50 significant digits
    err = abs(x.val * 3 - 1)
    assert err < mpmath.mpf(10) ** (-45)


def test_float_ops_take_max_digits():
    a = fl(1, 30) / 7
    b = fl(1, 60) / 11
    assert (a * b).digits == 60


def test_canonical_strings_deterministic():
    assert ex(F(3, 4)).canonical() == "3/4"
    assert ex(5).canonical() == "5"
    v = ExactScalar(F(1, 2), F(-3, 4), F(1, 2))
    assert v.canonical() == "1/2-3/4*sqrt(1/2)"
    assert ex(F(3, 4)).canonical() == ex(F(3, 4)).canonical()


def test_negative_powers():
    assert (ex(F(2, 3)) ** -2).to_fraction() == F(9, 4)
    s = ExactScalar.sqrt_of(F(1, 2))
    assert ((s ** -2)).to_fraction() == 2


def test_rational_text_matches_str():
    for x in (F(0), F(-7), F(22, 7), F(-1, 3), F(10 ** 40, 3 ** 30)):
        assert rational_text(x) == str(x)
        assert ex(x).canonical() == str(x)
    s = ExactScalar(F(1, 2), F(-3, 4), F(3, 4))
    assert s.canonical() == "1/2-3/4*sqrt(3/4)"


def test_canonical_beyond_int_str_digit_limit():
    big = 10 ** 5000 + 7                     # 5001 digits, past the 4300 limit
    digits = "1" + "0" * 4999 + "7"
    assert rational_text(F(big, 3)) == digits + "/3"
    assert rational_text(F(-1, big)) == "-1/" + digits
    s = ExactScalar(F(1, big), F(-big, 5), F(1, 2))
    assert s.canonical() == f"1/{digits}-{digits}/5*sqrt(1/2)"


# -- ExactScalar.dot: one reduction per sum, equal to the left-to-right sum --


def _left_to_right(xs, ys):
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


_parts = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _dot_vectors(draw):
    """Equal-length vectors of rationals and, unless ``rational``, elements
    of one Q(sqrt r); the parts a and b take either sign."""
    n = draw(st.integers(1, 8))
    rad = draw(st.sampled_from([F(2), F(3, 4), F(1, 2)]))
    rational = draw(st.booleans())

    def entry():
        b = F(0) if rational or draw(st.booleans()) else draw(_parts)
        return ExactScalar(draw(_parts), b, rad if b else None)

    return [entry() for _ in range(n)], [entry() for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(_dot_vectors())
def test_exact_dot_equals_the_left_to_right_sum(vectors):
    xs, ys = vectors
    got, want = ExactScalar.dot(xs, ys), _left_to_right(xs, ys)
    assert (got.a, got.b, got.rad) == (want.a, want.b, want.rad)


def test_exact_dot_edge_cases():
    s = ExactScalar(F(-1, 3), F(5, 7), F(3, 4))
    # length 1
    got = ExactScalar.dot([s], [s])
    assert (got.a, got.b, got.rad) == ((s * s).a, (s * s).b, F(3, 4))
    # a sum that cancels to 0 is the rational 0
    zero = ExactScalar.dot([s, s, ex(2)], [s, -s, ex(0)])
    assert zero.a == 0 and zero.b == 0 and zero.rad is None
    # irrational parts that cancel leave a rational
    r = ExactScalar.dot([s, ExactScalar(F(1), F(-5, 7), F(3, 4))], [ex(1), ex(1)])
    assert r.rad is None and r == ex(F(2, 3))
    # a sqrt factor times 0 fixes no radicand
    r2, r3 = ExactScalar.sqrt_of(F(2)), ExactScalar.sqrt_of(F(3))
    got = ExactScalar.dot([r2, r3], [ex(0), ex(1)])
    assert (got.a, got.b, got.rad) == (F(0), F(1), F(3))
    # rationals only
    assert ExactScalar.dot([ex(F(1, 2)), ex(F(-2, 3))], [ex(4), ex(F(3, 5))]) == ex(F(8, 5))


def test_exact_dot_refuses_incompatible_radicands():
    r2, r3 = ExactScalar.sqrt_of(F(2)), ExactScalar.sqrt_of(F(3))
    with pytest.raises(ModeMismatchError):
        ExactScalar.dot([r2], [r3])
    with pytest.raises(ModeMismatchError):
        ExactScalar.dot([r2, ex(1)], [ex(1), r3])
    with pytest.raises(ModeMismatchError):
        ExactScalar.dot([r2], [fl(1)])


# -- ExactScalar on integers against the Fraction-pair formulas it replaced ---


class _Pair:
    """Reference a + b*sqrt(rad) on two Fractions: the formulas ExactScalar
    used before it held integers, one Fraction operation at a time."""

    def __init__(self, a, b=F(0), rad=None):
        self.a, self.b = F(a), F(b)
        self.rad = None if self.b == 0 else rad

    @staticmethod
    def of(x):
        return x if isinstance(x, _Pair) else _Pair(x)

    def _join(self, o):
        if self.rad is None:
            return o.rad
        if o.rad is None or o.rad == self.rad:
            return self.rad
        raise ModeMismatchError("incompatible radicands")

    def __add__(self, other):
        o = _Pair.of(other)
        return _Pair(self.a + o.a, self.b + o.b, self._join(o))

    __radd__ = __add__

    def __neg__(self):
        return _Pair(-self.a, -self.b, self.rad)

    def __sub__(self, other):
        return self + (-_Pair.of(other))

    def __rsub__(self, other):
        return (-self) + _Pair.of(other)

    def __mul__(self, other):
        o = _Pair.of(other)
        rad = self._join(o)
        a = self.a * o.a
        if self.b != 0 and o.b != 0:
            a += self.b * o.b * rad
        return _Pair(a, self.a * o.b + self.b * o.a, rad)

    __rmul__ = __mul__

    def inverse(self):
        if self.b == 0:
            return _Pair(1 / self.a)
        norm = self.a * self.a - self.b * self.b * self.rad
        return _Pair(self.a / norm, -self.b / norm, self.rad)

    def __truediv__(self, other):
        return self * _Pair.of(other).inverse()

    def __rtruediv__(self, other):
        return _Pair.of(other) * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = _Pair(1)
        for _ in range(n):
            result = result * self
        return result

    def sign(self):
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        sa, sb = (1 if a > 0 else -1), (1 if b > 0 else -1)
        if sa == sb:
            return sa
        aa, bb = a * a, b * b * self.rad
        return 0 if aa == bb else (sa if aa > bb else sb)

    def canonical(self):
        if self.b == 0:
            return rational_text(self.a)
        sign = "-" if self.b < 0 else "+"
        return (f"{rational_text(self.a)}{sign}{rational_text(abs(self.b))}"
                f"*sqrt({rational_text(self.rad)})")

    def to_mpf(self, digits):
        with mpmath.workdps(digits):
            val = mpmath.mpf(self.a.numerator) / self.a.denominator
            if self.b != 0:
                rt = mpmath.sqrt(mpmath.mpf(self.rad.numerator) / self.rad.denominator)
                val += (mpmath.mpf(self.b.numerator) / self.b.denominator) * rt
        return val


def _agrees(got, want):
    """got is a well-formed ExactScalar with want's value."""
    assert type(got) is ExactScalar
    assert got.d > 0 and math.gcd(got.n, got.m, got.d) == 1
    assert (got.m == 0) == (got.rad is None)
    assert (got.a, got.b, got.rad) == (want.a, want.b, want.rad)
    assert got.canonical() == want.canonical()
    if got.rad is None:
        assert hash(got) == hash(got.a)


_RADICANDS = st.sampled_from([F(2), F(3, 4), F(1, 2), F(7, 5), F(12)])
_BITS = st.sampled_from([1, 3, 20, 200, 1000, 8000])


@st.composite
def _big_fractions(draw):
    """A rational whose numerator and denominator have up to about 8k bits;
    the denominator often shares small factors with others drawn."""
    top = 1 << draw(_BITS)
    num = draw(st.integers(-top, top))
    den = draw(st.integers(1, top)) * draw(st.sampled_from([1, 2, 6, 4 * 3 ** 5, 2 ** 64]))
    return F(num, den)


@st.composite
def _pairs_over(draw, rad):
    """(ExactScalar, _Pair) of one value, rational or in Q(sqrt rad)."""
    a = draw(_big_fractions())
    b = draw(st.one_of(st.just(F(0)), _big_fractions()))
    r = rad if b else None
    return ExactScalar(a, b, r), _Pair(a, b, r)


_literals = st.one_of(st.integers(-10 ** 30, 10 ** 30), _big_fractions())


@st.composite
def _operands(draw):
    rad = draw(_RADICANDS)
    return draw(_pairs_over(rad)), draw(_pairs_over(rad)), draw(_literals)


_BINARY = [
    ("+", lambda x, y: x + y), ("-", lambda x, y: x - y),
    ("*", lambda x, y: x * y), ("/", lambda x, y: x / y),
]


@settings(max_examples=200, deadline=None)
@given(_operands(), st.integers(-3, 3))
def test_exact_scalar_matches_the_fraction_pair_formulas(operands, e):
    (x, rx), (y, ry), k = operands
    rk = _Pair(k)
    for name, op in _BINARY:
        for left, right, rleft, rright in ((x, y, rx, ry), (x, k, rx, rk), (k, x, rk, rx)):
            if name == "/" and not (rright.a or rright.b):
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            _agrees(op(left, right), op(rleft, rright))
    _agrees(-x, -rx)
    _agrees(abs(x), -rx if rx.sign() < 0 else rx)
    if rx.a or rx.b:
        _agrees(x.inverse(), rx.inverse())
        _agrees(x ** e, rx ** e)
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        _agrees(x ** abs(e), rx ** abs(e))
    assert x.sign() == rx.sign()
    assert (x == y) == ((rx - ry).sign() == 0)
    assert (x < y) == ((rx - ry).sign() < 0)
    assert (x <= k) == ((rx - rk).sign() <= 0)
    assert (x == k) == ((rx - rk).sign() == 0)
    assert (x == y) <= (hash(x) == hash(y))
    assert x.to_mpf(40)._mpf_ == rx.to_mpf(40)._mpf_
    assert ExactScalar(k) == k and hash(ExactScalar(k)) == hash(k)



_COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge)


@settings(max_examples=300, deadline=None)
@given(_operands(), st.booleans())
def test_exact_comparisons_match_fraction_comparisons(operands, tie):
    # two rationals (the cross-product path) against Fraction's own <, and
    # a Q(sqrt r) operand (the difference path) against the sign of the
    # Fraction-pair difference; ints and Fractions on either side
    (x, rx), (y, ry), k = operands
    if tie:
        y, ry = ExactScalar(rx.a), _Pair(rx.a)
    for left, right, rl, rr in ((x, y, rx, ry), (x, k, rx, _Pair(k)), (k, x, _Pair(k), rx),
                                (x, x, rx, rx)):
        for op in _COMPARISONS:
            if rl.b == 0 and rr.b == 0:
                assert op(left, right) == op(rl.a, rr.a)
            else:
                assert op(left, right) == op((rl - rr).sign(), 0)

@settings(max_examples=100, deadline=None)
@given(_RADICANDS.flatmap(lambda rad: st.lists(
    st.tuples(_pairs_over(rad), _pairs_over(rad)), min_size=1, max_size=8)))
def test_exact_dot_matches_the_fraction_pair_sum(pairs):
    want = _Pair(0)
    for (_, rx), (_, ry) in pairs:
        want = want + rx * ry
    _agrees(ExactScalar.dot([x for (x, _), _ in pairs], [y for _, (y, _) in pairs]), want)


def test_exact_mixed_radicands_raise():
    x = ExactScalar(F(1, 3), F(2, 5), F(2))
    y = ExactScalar(F(-7), F(1, 9), F(3, 4))
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y,
               lambda: y / x, lambda: x < y, lambda: ExactScalar.dot([x], [y])):
        with pytest.raises(ModeMismatchError):
            op()
    assert x != y
    # a rational operand fixes no radicand
    assert (x * 0).rad is None and ((x * 0) + y).rad == F(3, 4)


# -- FloatScalar: the same bits as mpmath's arithmetic at the max digits ------

_DIGITS = st.sampled_from([15, 30, 50, 65, 120])
_wide_ints = st.one_of(st.integers(-12, 12), st.integers(-2 ** 600, 2 ** 600))
_ratios = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6)


@st.composite
def _floats(draw):
    """A FloatScalar at one of the tested digits: zero, or an integer or a
    rational with a full mantissa, of either sign."""
    value = draw(st.one_of(st.just(F(0)), _ratios, _wide_ints.map(F)))
    return FloatScalar(value, draw(_DIGITS))


def _literal_mpf(lit):
    """mpf(lit) at the working precision in effect, as FloatScalar(lit) makes it."""
    if isinstance(lit, F):
        return mpmath.mpf(lit.numerator) / lit.denominator
    return mpmath.mpf(lit)


_OPS = {
    "+": (lambda x, y: x + y),
    "-": (lambda x, y: x - y),
    "*": (lambda x, y: x * y),
    "/": (lambda x, y: x / y),
}


def _same_bits(got, want, digits):
    assert got.digits == digits
    assert got.val._mpf_ == want._mpf_


def _check_binary(op, x, other, reflected):
    """x op other (or other op x) against mpmath under workdps(max digits)."""
    fn = _OPS[op]
    d = max(x.digits, other.digits) if isinstance(other, FloatScalar) else x.digits
    with mpmath.workdps(d):
        o = other.val if isinstance(other, FloatScalar) else _literal_mpf(other)
        divisor = x.val if reflected else o
        if op == "/" and divisor == 0:
            with pytest.raises(ZeroDivisionError):
                fn(other, x) if reflected else fn(x, other)
            return
        want = fn(o, x.val) if reflected else fn(x.val, o)
    # the result does not depend on the working precision in effect
    with mpmath.workdps(7):
        got = fn(other, x) if reflected else fn(x, other)
    _same_bits(got, want, d)


@settings(max_examples=200, deadline=None)
@given(_floats(), st.one_of(_floats(), _wide_ints, _ratios,
                            st.sampled_from(["0", "-0.75", "1e-20", "3/7", "2." + "7" * 60])),
       st.sampled_from(sorted(_OPS)), st.booleans())
def test_float_binary_ops_match_mpmath(x, other, op, reflected):
    _check_binary(op, x, other, reflected)


@settings(max_examples=200, deadline=None)
@given(_floats(), st.integers(-4, 6))
def test_float_unary_ops_match_mpmath(x, n):
    d = x.digits
    with mpmath.workdps(d):
        # the bits of -mpf and abs(mpf) at the scalar's digits
        _same_bits(-x, -x.val, d)
        _same_bits(abs(x), abs(x.val), d)
    if x.val == 0 and n < 0:
        with pytest.raises(ZeroDivisionError):
            x ** n
    else:
        with mpmath.workdps(d):
            want = x.val ** n
        _same_bits(x ** n, want, d)
    root = abs(x)
    with mpmath.workdps(d):
        want = mpmath.sqrt(root.val)
    _same_bits(root.sqrt(), want, d)


# -- FloatScalar.dot and convolve: the exact sum, rounded once -----------------

def _value(x: FloatScalar) -> F:
    """The exact dyadic value of a finite FloatScalar."""
    sign, man, exp, _ = x.val._mpf_
    v = F(man) * F(2) ** exp
    return -v if sign else v


def _nearest(v: F, digits: int) -> F:
    """v rounded to dps_to_prec(digits) significant bits, ties to even."""
    if not v:
        return v
    prec = dps_to_prec(digits)
    a = abs(v)
    top = a.numerator.bit_length() - a.denominator.bit_length()
    if a < F(2) ** top:
        top -= 1                        # 2^top <= a < 2^(top+1)
    unit = F(2) ** (top + 1 - prec)
    r = round(a / unit) * unit          # round() on a Fraction breaks ties to even
    return r if v > 0 else -r


def _check_rounded_once(got, pairs):
    """got is the exact sum of the products, rounded once at the max digits."""
    digits = max(max(x.digits, y.digits) for x, y in pairs)
    assert got.digits == digits
    assert _value(got) == _nearest(sum(_value(x) * _value(y) for x, y in pairs), digits)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_floats(), _floats()), min_size=1, max_size=12))
def test_float_dot_rounds_the_exact_sum_once(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    _check_rounded_once(FloatScalar.dot(xs, ys), pairs)


@st.composite
def _spread_floats(draw):
    """Pairs of FloatScalars whose products span up to 10^5 bits, with exact
    cancellations: some products are repeated with the opposite sign."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    digits = draw(_DIGITS)
    pairs = []
    for _ in range(draw(st.integers(1, 10))):
        m = rng.randrange(1, 2 ** dps_to_prec(digits)) * rng.choice((-1, 1))
        e = rng.choice((0, rng.randrange(-10 ** 5, 10 ** 5), rng.randrange(-400, 400)))
        x, y = FloatScalar(mpmath.mpf((m, e)), digits), fl(rng.choice((1, 3, F(1, 3))), digits)
        pairs.append((x, y))
        if rng.random() < 0.3:
            pairs.append((-x, y))
    rng.shuffle(pairs)
    return pairs


@settings(max_examples=300, deadline=None)
@given(_spread_floats())
def test_float_dot_rounds_widely_spread_sums_once(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    _check_rounded_once(FloatScalar.dot(xs, ys), pairs)


@pytest.mark.parametrize("sign", [1, -1, 0])
@pytest.mark.parametrize("gap", [10, 40_000, 10 ** 6])
def test_float_dot_breaks_a_tie_by_a_term_far_below(sign, gap):
    """2^prec + 1 is a tie at prec bits; a term 2^-gap decides it, however
    far below it lies, and without it the tie goes to the even mantissa."""
    prec = dps_to_prec(50)
    xs = [fl(2 ** prec), fl(1), fl(mpmath.mpf((sign, -gap)))]
    got = FloatScalar.dot(xs, [1, 1, 1])
    assert _value(got) == 2 ** prec + (2 if sign > 0 else 0)


def test_float_dot_coerces_literals_and_refuses_exact():
    a, b = fl(F(1, 3), 30), fl(F(-2, 7), 65)
    got = FloatScalar.dot([a, b, 2], [3, F(1, 5), a])
    # a literal coerces at its partner's digits, as FloatScalar(literal, digits)
    _check_rounded_once(got, [(a, fl(3, 30)), (b, fl(F(1, 5), 65)), (fl(2, 30), a)])
    assert got.digits == 65
    zero = FloatScalar.dot([fl(0, 30), 0], [a, fl(1, 40)])
    assert (zero.val._mpf_, zero.digits) == ((0, 0, 0, 0), 40)
    with pytest.raises(ModeMismatchError):
        FloatScalar.dot([a], [ex(1)])
    with pytest.raises(ModeMismatchError):
        FloatScalar.dot([ex(1)], [a])
    with pytest.raises(TypeError, match="FloatScalar in each pair"):
        FloatScalar.dot([2], [3])
    with pytest.raises(TypeError, match="FloatScalar in each pair"):
        FloatScalar.dot([a, 2], [1, F(1, 3)])
    with pytest.raises(ValueError):
        FloatScalar.dot([], [])


_INF, _NINF, _NAN = (mpmath.mpf(v) for v in ("inf", "-inf", "nan"))


@pytest.mark.parametrize("xs,ys,want", [
    ([_INF, F(1, 2)], [1, 1], _INF),
    ([F(1, 2), _INF], [1, -3], _NINF),
    ([_NINF, 7], [2, 0], _NINF),
    ([_INF, _NINF], [1, 1], _NAN),
    ([_INF, 1], [0, 1], _NAN),
    ([_NAN, 1], [1, 1], _NAN),
])
def test_float_dot_and_convolve_never_sum_inf_or_nan_as_zero(xs, ys, want):
    xs, ys = [fl(x) for x in xs], [fl(y) for y in ys]
    assert FloatScalar.dot(xs, ys).val._mpf_ == want._mpf_
    # the special entry sits at index 0 or 1, so it enters the last coefficient
    last = FloatScalar.convolve(xs, ys[::-1])[-1]
    assert last.val._mpf_ == FloatScalar.dot(xs, ys).val._mpf_


def _dot_per_coefficient(xs, ys):
    n = min(len(xs), len(ys))
    return [FloatScalar.dot(xs[:k + 1], ys[k::-1]) for k in range(n)]


def _same_values(got, want):
    assert [(g.val._mpf_, g.digits) for g in got] == [(w.val._mpf_, w.digits) for w in want]


@st.composite
def _sequences(draw):
    """A coefficient sequence: length 1-80, a mantissa size, a spread of the
    exponents over 0-3000 bits (a combined 1200 bits is where the packing
    gives way to the dot loop), zero and negative entries in some, one
    digits for all or mixed digits."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(1, 80))
    digits = draw(_DIGITS)
    bits = draw(st.sampled_from([1, 8, 53, dps_to_prec(digits)]))
    spread = draw(st.sampled_from([0, 20, 300, 450, 520, 1000, 3000]))
    signs = draw(st.sampled_from([(1,), (-1,), (1, -1)]))
    zeros = draw(st.sampled_from([0, 0.2, 1]))
    mixed = draw(st.booleans())
    out = []
    for _ in range(n):
        d = rng.choice(list(_DIGITS.elements)) if mixed else digits
        if rng.random() < zeros:
            out.append(FloatScalar(0, d))
            continue
        m = rng.randrange(1, 2 ** min(bits, dps_to_prec(d))) * rng.choice(signs)
        out.append(FloatScalar(mpmath.mpf((m, -rng.randrange(spread + 1))), d))
    return out


@settings(max_examples=300, deadline=None)
@given(_sequences(), _sequences())
def test_float_convolve_is_the_dot_per_coefficient(xs, ys):
    _same_values(FloatScalar.convolve(xs, ys), _dot_per_coefficient(xs, ys))


@pytest.mark.parametrize("n", [1, 3, 7, 63])
@pytest.mark.parametrize("ybits", [3, 64, 169])
def test_float_convolve_slots_hold_the_largest_sums(n, ybits):
    """Every mantissa 2^bits - 1 and one sign per sequence: the last slot
    holds n of the largest products, the largest sum a slot must hold.
    Eight consecutive sizes of x meet every rounding of a slot to bytes."""
    for xbits in range(3, 11):
        for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            xs = [fl(sx * (2 ** xbits - 1))] * n
            ys = [fl(mpmath.mpf((sy * (2 ** ybits - 1), -ybits)))] * n
            _same_values(FloatScalar.convolve(xs, ys), _dot_per_coefficient(xs, ys))


def test_float_convolve_edge_cases():
    a = fl(F(1, 3))
    assert FloatScalar.convolve([], [a]) == []
    # truncated to the shorter sequence, and exact-mode entries still refused
    assert len(FloatScalar.convolve([a, a, a], [a, -a])) == 2
    with pytest.raises(ModeMismatchError):
        FloatScalar.convolve([a, a], [ex(1), ex(2)])
    # literals go through the dot loop, which coerces them
    _same_values(FloatScalar.convolve([a, 2], [a, F(1, 5)]),
                 _dot_per_coefficient([a, 2], [a, F(1, 5)]))


def test_float_sqrt_of_a_negative_is_a_domain_error():
    with pytest.raises(DomainError):
        fl(-2).sqrt()


@settings(max_examples=200, deadline=None)
@given(_floats(), _ratios, _DIGITS)
def test_float_power_exp_neg_abs_round_at_their_digits(x, e, digits):
    """Non-integer ``**``, ``exp``, ``-`` and ``abs`` give mpmath's bits at
    the operands' digits whatever the working precision in effect."""
    y = FloatScalar(e, digits)
    d = max(x.digits, digits)
    with mpmath.workdps(7):
        got_exp, got_neg, got_abs = y.exp(), -x, abs(x)
        got_pow = abs(x) ** y if x.val else None
    with mpmath.workdps(digits):
        _same_bits(got_exp, mpmath.exp(y.val), digits)
    with mpmath.workdps(x.digits):
        _same_bits(got_neg, -x.val, x.digits)
        _same_bits(got_abs, abs(x.val), x.digits)
    if x.val:
        with mpmath.workdps(d):
            _same_bits(got_pow, mpmath.power(abs(x.val), y.val), d)
    if x.val < 0 and y.val != int(y.val):
        with pytest.raises(DomainError):
            x ** y


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 400, 10 ** 400),
       st.one_of(st.integers(1, 10 ** 400),
                 st.integers(1, 10 ** 380).map(lambda k: k * sys.hash_info.modulus)))
def test_exact_rational_hash_is_the_fraction_hash(n, d):
    f = F(n, d)
    assert hash(ex(f)) == hash(f)


def test_float_int_operands_wider_than_the_precision_round_first():
    # mpf(n) rounds n to the working precision before the operation does
    for digits in (15, 50, 120):
        x = fl(F(-22, 7), digits)
        for n in (3 ** 400 + 1, -(7 ** 300) - 2, 2 ** 500 - 1):
            for op in sorted(_OPS):
                for reflected in (False, True):
                    _check_binary(op, x, n, reflected)


# -- irrational products reduce by a short gcd when one factor is short -------

_PRODUCT_RADICANDS = st.sampled_from([F(2), F(3, 4), F(1, 2), F(7, 3), F(5, 12), F(18, 25),
                                      F(3, 8), F(50, 9)])


@st.composite
def _irrational(draw, rad, bits):
    """(n + m sqrt(rad)) / d in lowest terms with m != 0 and parts of about
    ``bits`` bits; the denominator often carries small primes."""
    top = 1 << bits
    a = F(draw(st.integers(-top, top)),
          draw(st.integers(1, top)) * draw(st.sampled_from([1, 2, 3, 6, 25, 2 ** 20])))
    b = F(draw(st.integers(1, top)) * draw(st.sampled_from([1, -1])), draw(st.integers(1, top)))
    return ExactScalar(a, b, rad)


@st.composite
def _irrational_products(draw):
    """(long, short) irrational factors over one radicand.  The short factor
    is at times short enough for the gcd to start from K and at times not;
    the long one is often a multiple of the short one's conjugate, so that
    the product cancels much."""
    rad = draw(_PRODUCT_RADICANDS)
    short = draw(_irrational(rad, draw(st.sampled_from([1, 4, 12, 40, 300]))))
    long_ = draw(_irrational(rad, draw(st.sampled_from([8, 100, 1200]))))
    if draw(st.booleans()):
        conj = ExactScalar(short.a, -short.b, rad)
        long_ = long_ * conj * draw(st.sampled_from([1, 3, F(5, 7)]))
    return long_, short


def _plain_product(x, y):
    """The product's integers reduced by the plain gcd of all three."""
    rn, rd = x.rad.numerator, x.rad.denominator
    n = x.n * y.n * rd + x.m * y.m * rn
    m = (x.n * y.m + x.m * y.n) * rd
    d = x.d * y.d * rd
    g = math.gcd(d, n, m)
    return n // g, m // g, d // g


@settings(max_examples=400, deadline=None)
@given(_irrational_products())
def test_short_gcd_product_equals_the_plain_reduction(factors):
    x, y = factors
    if not x.m:                 # the conjugate multiple came out rational
        return
    for p in (x * y, y * x):
        assert (p.n, p.m, p.d) == _plain_product(x, y)
        assert p.rad == (x.rad if p.m else None)


@settings(max_examples=200, deadline=None)
@given(_big_fractions(), _big_fractions())
def test_canonical_prints_the_fraction_text(a, b):
    assert ex(a).canonical() == rational_text(a)
    if b:
        s = ExactScalar(a, b, F(3, 4))
        sign = "-" if b < 0 else "+"
        assert s.canonical() == (f"{rational_text(a)}{sign}{rational_text(abs(b))}"
                                 "*sqrt(3/4)")
