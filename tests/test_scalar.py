"""Backend behaviour: exactness, quadratic-field arithmetic, mode isolation."""

from fractions import Fraction as F

import mpmath
import pytest

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
