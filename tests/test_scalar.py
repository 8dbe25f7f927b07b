"""Backend behaviour: exactness, quadratic-field arithmetic, mode isolation."""

from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qturan.scalar import (
    DEFAULT_DIGITS,
    ExactScalar,
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
