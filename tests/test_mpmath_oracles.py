"""Cross-validation against mpmath's independent q-function implementations."""

from fractions import Fraction as F

import mpmath
import pytest
from mpmath.libmp import dps_to_prec

from qturan.qcore import QBase, qgamma, qpochhammer_finite, qpochhammer_infinite
from qturan.series import PhiSpec, g_series, heine_f_series, qbessel_j1, qbessel_j2, tphis_series
from qturan.scalar import FloatScalar, ex, fl

DIGITS = 50
QF = QBase.floating(F(1, 2), DIGITS)


def setup_module():
    mpmath.mp.dps = DIGITS + 10


def test_qpochhammer_against_mpmath_qp():
    for a, n in ((F(1, 3), 5), (F(-2, 7), 9), (F(9, 10), 3)):
        got = qpochhammer_finite(ex(a), QBase.exact(q=F(2, 5)), n).to_fraction()
        want = mpmath.qp(mpmath.mpf(a.numerator) / a.denominator,
                         mpmath.mpf("0.4"), n)
        assert abs(mpmath.mpf(got.numerator) / got.denominator - want) \
            < mpmath.mpf(10) ** (-DIGITS + 2)


def test_infinite_product_against_mpmath_qp():
    for a in (F(1, 2), F(-3, 4), F(1, 7)):
        got = qpochhammer_infinite(fl(a, DIGITS), QF)
        want = mpmath.qp(mpmath.mpf(a.numerator) / a.denominator, mpmath.mpf("0.5"))
        assert abs(got.val - want) < mpmath.mpf("1e-40") * abs(want)


def test_qgamma_against_mpmath():
    for z in (F(1, 2), F(5, 2), F(4), F(13, 4)):
        got = qgamma(z, QF)
        want = mpmath.qgamma(mpmath.mpf(z.numerator) / z.denominator,
                             mpmath.mpf("0.5"))
        assert abs(got.val - want) < mpmath.mpf("1e-40") * abs(want)


def ulps(got, want, digits):
    """|got - want| in units of the spacing of the binary floats with the
    bits of ``digits`` digits at want."""
    return abs(got - want) / mpmath.ldexp(1, mpmath.frexp(want)[1] - dps_to_prec(digits))


@pytest.mark.parametrize("digits", [20, 50, 80])
@pytest.mark.parametrize("qv", [F(1, 10), F(3, 10), F(1, 2), F(4, 5), F(19, 20)])
def test_products_and_gamma_meet_their_digits(digits, qv):
    """(a; q)_inf is within 1 ulp and Gamma_q within 8 (about six roundings)
    of mpmath at digits + 60, on the base's own binary q and a."""
    base = QBase.floating(qv, digits)
    qm = base.q.val
    with mpmath.workdps(digits + 60):
        for a in (base.q, FloatScalar(F(1, 3), digits), FloatScalar(F(-1, 4), digits)):
            got = qpochhammer_infinite(a, base)
            assert got.digits == digits
            assert ulps(got.val, mpmath.qp(a.val, qm), digits) <= 1
        for z in (F(1, 2), F(3, 2), F(5, 2), F(7, 3), F(4)):
            got = qgamma(z, base)
            assert got.digits == digits
            want = mpmath.qgamma(mpmath.mpf(z.numerator) / z.denominator, qm)
            assert ulps(got.val, want, digits) <= 8


@pytest.mark.parametrize("upper,lower,z", [
    ((F(1, 3),), (F(1, 5), F(1, 7)), F(3, 2)),     # t < s: entire, extra factor
    ((F(1, 3), F(1, 4)), (F(1, 5),), F(2, 3)),     # t = s + 1
    ((), (F(2, 5),), F(1, 2)),                     # 0phi1
])
def test_tphis_against_mpmath_qhyper(upper, lower, z):
    spec = PhiSpec(tuple(fl(u, DIGITS) for u in upper),
                   tuple(fl(v, DIGITS) for v in lower), QF)
    got = tphis_series(spec, 220).eval(fl(z, DIGITS))
    want = mpmath.qhyper([mpmath.mpf(u.numerator) / u.denominator for u in upper],
                         [mpmath.mpf(v.numerator) / v.denominator for v in lower],
                         mpmath.mpf("0.5"),
                         mpmath.mpf(z.numerator) / z.denominator)
    assert abs(got.val - want) < mpmath.mpf("1e-38") * max(abs(want), 1)


def test_heine_f_against_mpmath_qhyper():
    mu, x = F(3, 2), F(2, 5)
    got = heine_f_series(mu, QF, 260).eval(fl(x, DIGITS))
    q = mpmath.mpf("0.5")
    want = mpmath.qhyper([0, 0], [q ** (mpmath.mpf(3) / 2)], q,
                         mpmath.mpf("0.4"))
    assert abs(got.val - want) < mpmath.mpf("1e-38") * abs(want)


def test_g_series_against_mpmath_composition():
    # absolute g value assembled from mpmath qgamma and qhyper directly
    a, b, mu, x = (F(2), F(3)), (F(1), F(2)), F(1), F(1, 3)
    got = g_series(a, b, mu, QF, 220, absolute=True).eval(fl(x, DIGITS))
    q = mpmath.mpf("0.5")
    pref = (mpmath.qgamma(3, q) * mpmath.qgamma(4, q)
            / (mpmath.qgamma(2, q) * mpmath.qgamma(3, q)))
    xv = mpmath.mpf(1) / 3
    want = pref * mpmath.qhyper([q ** 3, q ** 4], [q ** 2, q ** 3], q,
                                (q - 1) * xv)
    assert abs(got.val - want) < mpmath.mpf("1e-38") * abs(want)


@pytest.mark.parametrize("alpha,y", [(F(0), F(1)), (F(1, 2), F(3, 2)), (F(2), F(19, 10))])
def test_qbessel_against_mpmath_qhyper(alpha, y):
    # J1 = pre * 2phi1(0, 0; b; q, -y^2/4) and J2 = pre * 0phi1(-; b; q, -b y^2/4)
    # with b = q^(alpha+1) and pre = (y/2)^alpha (b; q)_inf / (q; q)_inf
    q = QBase.floating(F(4, 5), DIGITS)
    qv = mpmath.mpf(4) / 5
    av = mpmath.mpf(alpha.numerator) / alpha.denominator
    yv = mpmath.mpf(y.numerator) / y.denominator
    b = qv ** (av + 1)
    pre = (yv / 2) ** av * mpmath.qp(b, qv) / mpmath.qp(qv, qv)
    j1 = pre * mpmath.qhyper([0, 0], [b], qv, -yv ** 2 / 4)
    j2 = pre * mpmath.qhyper([], [b], qv, -b * yv ** 2 / 4)
    assert abs(qbessel_j1(alpha, y, q, 1500).val - j1) < mpmath.mpf("1e-40") * abs(j1)
    assert abs(qbessel_j2(alpha, y, q, 400).val - j2) < mpmath.mpf("1e-40") * abs(j2)
