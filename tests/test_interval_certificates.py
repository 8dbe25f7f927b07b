"""The interval path of exact sign certificates never disagrees with exact signs.

Each certificate decides the sign of every Turanian coefficient from an
outward-rounded interval and recomputes exactly only the coefficients whose
interval contains 0.  The reference here classifies the exact coefficients
of the full exact Cauchy products instead.
"""

from fractions import Fraction as F
from math import isqrt

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qturan import turanian
from qturan.qcore import QBase, qpochhammer_finite
from qturan.scalar import CollisionError, ExactScalar, ex
from qturan.series import TruncatedSeries, g_series, heine_f_series
from qturan.turanian import (
    Family,
    SignVerdict,
    _PREC,
    TuranianSpec,
    _exact_mode_bounds,
    _Interval,
    _rho_interval,
    sign_certificate,
    turanian_series,
)

VECTORS = {"g-a": ((F(1), F(1), F(1)), (F(2), F(2))),
           "g-b": ((F(2), F(3)), (F(1), F(2)))}


def reference(coeffs):
    """Verdict, first violation and min |Delta_m| from exact Delta_1..Delta_M."""
    tail = coeffs[1:]
    signs = [c.sign() for c in tail]
    if all(s == 0 for s in signs):
        return SignVerdict.ZERO, None, ex(0)
    if 1 in signs and -1 in signs:
        first = next(s for s in signs if s != 0)
        return SignVerdict.MIXED, signs.index(-first) + 1, None
    positive = 1 in signs
    if positive:
        verdict = (SignVerdict.ALL_STRICTLY_POS if 0 not in signs
                   else SignVerdict.ALL_NONNEG)
    else:
        verdict = (SignVerdict.ALL_STRICTLY_NEG if 0 not in signs
                   else SignVerdict.ALL_NONPOS)
    return verdict, None, min(abs(c) for c in tail)


def exact_tilde_coeffs(mu, alpha, beta, q, order):
    """u_m - rho v_m with the exact rho of integer shifts alpha, beta."""
    f = [heine_f_series(mu + s, q, order) for s in (alpha, beta, 0, alpha + beta)]
    u, v = f[0] * f[1], f[2] * f[3]
    # Gamma_q(x + n) = Gamma_q(x) (q^x; q)_n / (1 - q)^n
    qmu = q.q_power(mu)
    rho = (qpochhammer_finite(qmu, q, int(alpha)) * qpochhammer_finite(qmu, q, int(beta))
           / qpochhammer_finite(qmu, q, int(alpha + beta)))
    return [a - rho * b for a, b in zip(u.coeffs, v.coeffs)]


def tilde_far_bounds(mu, alpha, beta, q, order):
    """Per coefficient, the endpoint farthest from 0 of the exact bounds on
    u_m - rho v_m that the exact products u, v give against both ends of
    _rho_interval at 4x the certificate's first number of terms; None where
    those bounds do not decide the sign."""
    f = [heine_f_series(mu + s, q, order) for s in (alpha, beta, 0, alpha + beta)]
    u, v = f[0] * f[1], f[2] * f[3]
    rho_lo, rho_hi = _rho_interval(mu, alpha, beta, q, 4 * max(order, 48))
    far = []
    for a, b in zip(u.coeffs, v.coeffs):
        lo, hi = a - rho_hi * b, a - rho_lo * b
        far.append(hi if lo.sign() > 0 else lo if hi.sign() < 0 else None)
    return far


@st.composite
def points(draw):
    family = draw(st.sampled_from(["heine-f", "heine-f-tilde", "g-a", "g-b"]))
    q = draw(st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]))
    half = draw(st.booleans())
    order = draw(st.integers(1, 20))
    ints = st.integers(1, 4).map(F)
    halves = st.integers(0, 3).map(lambda k: F(2 * k + 1, 2))
    mu = draw(halves if half else ints)
    if family == "heine-f":
        alpha, beta = draw(halves if half else ints), draw(halves if half else ints)
    else:
        # exact tilde references need integer shifts; g takes alpha <= beta + 1
        alpha, beta = draw(ints), draw(ints)
        if family.startswith("g"):
            beta = max(beta, alpha - 1)
    return family, q, mu, alpha, beta, order


@settings(max_examples=40, deadline=None)
@given(points())
def test_interval_verdicts_equal_exact_signs(point):
    family, qv, mu, alpha, beta, order = point
    q = QBase.exact(q=qv)
    if family == "heine-f-tilde":
        spec = TuranianSpec(Family.HEINE_F_TILDE, mu, alpha, beta, q, order)
        coeffs = exact_tilde_coeffs(mu, alpha, beta, q, order)
    elif family == "heine-f":
        spec = TuranianSpec(Family.HEINE_F, mu, alpha, beta, q, order)
        coeffs = turanian_series(spec).coeffs
    else:
        spec = TuranianSpec(Family.G_NORMALIZED, mu, alpha, beta, q, order,
                            *VECTORS[family])
        coeffs = turanian_series(spec).coeffs
    rep = sign_certificate(spec)
    verdict, viol, min_margin = reference(coeffs)
    assert (rep.verdict, rep.first_violation) == (verdict, viol)
    assert rep.coeff0 == coeffs[0]
    assert rep.decided_by in ("interval", "interval+exact")
    if min_margin is None:
        assert rep.min_margin is None
    else:
        assert rep.min_margin <= min_margin
        assert (rep.min_margin.sign() > 0) == (min_margin.sign() > 0)
        assert rep.min_margin.sign() >= 0


def test_all_zero_chain_point_is_proven_exactly():
    # a = b satisfies both chains; the Turanian vanishes identically
    q = QBase.exact(q=F(3, 4))
    spec = TuranianSpec(Family.G_NORMALIZED, F(1, 2), F(1), F(2), q, 12,
                        (F(2), F(3)), (F(2), F(3)))
    rep = sign_certificate(spec)
    assert rep.chain_case == "a+b" and rep.verdict == SignVerdict.ZERO
    assert rep.matches_expected
    assert rep.decided_by == "interval+exact" and rep.exact_fallbacks == 12
    assert rep.min_margin.is_zero() and rep.coeff0.is_zero()


def test_zero_straddling_interval_falls_back_to_exact_sign():
    # Delta_1 = 2 - (2 + 2^-200): its 100-bit interval reaches 0, the exact
    # recomputation finds the sign and the exact margin
    tiny = F(1, 2 ** 200)
    one = TruncatedSeries((ex(1), ex(1)), 1)
    bumped = TruncatedSeries((ex(1), ex(1 + tiny)), 1)
    series = (one, one, one, bumped)
    enclosures = tuple(TruncatedSeries(tuple(map(_Interval.of, s.coeffs)), 1)
                       for s in series)
    coeff0, bounds, fallbacks = _exact_mode_bounds(series, enclosures, lambda: series,
                                                   (ex(1), ex(1)))
    assert coeff0.is_zero() and fallbacks == 1
    assert bounds == [ex(-tiny)]


def test_interval_decided_margin_is_a_dyadic_lower_bound():
    q = QBase.exact(q=F(1, 2))
    spec = TuranianSpec(Family.HEINE_F, F(1), F(1), F(1), q, 10)
    rep = sign_certificate(spec)
    assert rep.decided_by == "interval" and rep.exact_fallbacks == 0
    exact_min = min(-c for c in turanian_series(spec).coeffs[1:])
    margin = rep.min_margin.to_fraction()
    assert 0 < margin <= exact_min.to_fraction()
    assert margin.denominator & (margin.denominator - 1) == 0    # a power of 2
    assert exact_min.to_fraction() - margin < exact_min.to_fraction() * F(1, 2 ** 90)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]),
       st.integers(1, 8).map(lambda k: F(k, 2)),
       st.integers(0, 3).map(lambda k: F(2 * k + 1, 2)),
       st.integers(1, 8).map(lambda k: F(k, 2)),
       st.integers(1, 20))
def test_tilde_half_integer_shifts_agree_with_rho_enclosure(qv, mu, alpha, beta, order):
    q = QBase.exact(q=qv)
    far = tilde_far_bounds(mu, alpha, beta, q, order)
    assume(None not in far)
    rep = sign_certificate(TuranianSpec(Family.HEINE_F_TILDE, mu, alpha, beta, q, order))
    verdict, viol, bound = reference(far)
    assert (rep.verdict, rep.first_violation) == (verdict, viol)
    assert rep.decided_by in ("interval", "interval+exact")
    assert rep.coeff0.sign() == far[0].sign() and abs(rep.coeff0) <= abs(far[0])
    if bound is None:
        assert rep.min_margin is None
    else:
        assert 0 < rep.min_margin <= bound


def mp_rational(x):
    return mpmath.mpf(x.numerator) / x.denominator


@pytest.mark.parametrize("qv", [F(1, 4), F(1, 2), F(3, 4), F(19, 20), F(99, 100)])
@pytest.mark.parametrize("mu, alpha, beta", [(F(1, 2), F(1, 2), F(3, 2)),
                                             (F(1), F(3, 2), F(1, 2)),
                                             (F(5, 2), F(5, 2), F(1, 2))])
def test_rho_enclosure_contains_the_gamma_ratio_and_is_narrow(qv, mu, alpha, beta):
    # reference: mpmath's own q-Gamma function at 60 digits
    lo, hi = (x.to_fraction() for x in
              _rho_interval(mu, alpha, beta, QBase.exact(q=qv), 0))
    with mpmath.workdps(60):
        qm = mp_rational(qv)

        def gamma(x):
            return mpmath.qgamma(mp_rational(x), qm, maxterms=10 ** 6)

        rho = gamma(mu + alpha) * gamma(mu + beta) / (gamma(mu) * gamma(mu + alpha + beta))
        assert mp_rational(lo) < rho < mp_rational(hi)
    assert (hi - lo) / lo < F(1, 2 ** 90)


def contains(enclosure, exact):
    """Every coefficient of exact, truncated to the enclosure's order, lies
    in its bounded enclosure."""
    for iv, c in zip(enclosure.coeffs, exact.coeffs[:enclosure.order + 1], strict=True):
        assert iv.lm >= 0
        assert _Interval.exact(iv.lm, iv.le) <= c <= _Interval.exact(iv.hm, iv.he)


@pytest.mark.parametrize("qv", [F(1, 4), F(1, 2), F(3, 4)])
@pytest.mark.parametrize("build", [
    lambda q, s, n: heine_f_series(F(1) + s, q, n),
    lambda q, s, n: heine_f_series(F(1, 2) + s, q, n),
    lambda q, s, n: g_series(*VECTORS["g-a"], F(5, 2) + s, q, n, ref_mu=F(1, 2)),
    lambda q, s, n: g_series(*VECTORS["g-b"], F(5, 2) + s, q, n, ref_mu=F(1, 2)),
], ids=["heine-1", "heine-1/2", "g-a", "g-b"])
def test_enclosures_contain_the_exact_coefficients(build, qv):
    # the certificate encloses each shifted series by running the term ratio
    # of its order-0 head in intervals, and forms u = F(mu+1)F(mu+2) and
    # v = F(mu)F(mu+3) with the interval Cauchy kernel; g-b at q = 1/4 has
    # coefficients near 2^-3600 at order 60
    q = QBase.exact(q=qv)
    shifts = (1, 2, 0, 3)
    exact = [build(q, s, 90) for s in shifts]
    products = (exact[0] * exact[1], exact[2] * exact[3])
    # order 60 is covered as a prefix: the term-ratio recurrence and the
    # truncated Cauchy product give coefficient n from coefficients 0..n only
    enclosures = [build(q, s, 0).ratio.series(90, lift=_Interval.of) for s in shifts]
    for enclosure, series in zip(enclosures, exact):
        contains(enclosure, series)
    for enclosure, product in zip((enclosures[0] * enclosures[1],
                                   enclosures[2] * enclosures[3]), products):
        contains(enclosure, product)


def test_interval_decided_point_builds_no_exact_series(monkeypatch):
    orders = []

    def counting(mu, q, order):
        orders.append(order)
        return heine_f_series(mu, q, order)

    monkeypatch.setattr(turanian, "heine_f_series", counting)
    spec = TuranianSpec(Family.HEINE_F, F(3, 2), F(1, 2), F(5, 2), QBase.exact(q=F(3, 4)), 60)
    rep = sign_certificate(spec)
    assert rep.decided_by == "interval" and rep.verdict == SignVerdict.ALL_STRICTLY_NEG
    assert orders == [0, 0, 0, 0]


def test_lower_collision_is_an_error_in_the_interval_path():
    # b_1 + mu = 0 at mu = 0: the factor 1 - q^(b+mu) of every shifted series vanishes
    q = QBase.exact(q=F(1, 2))
    a, b = (F(2), F(3)), (F(0), F(2))
    head = g_series(a, b, F(0), q, 0)
    with pytest.raises(CollisionError):
        head.ratio.series(10, lift=_Interval.of)
    with pytest.raises(CollisionError):
        sign_certificate(TuranianSpec(Family.G_NORMALIZED, F(0), F(1), F(1), q, 10, a, b))


@pytest.mark.parametrize("qv", [1 - F(1, 2 ** 101), F(10 ** 40 - 1, 10 ** 40)],
                         ids=["1-2^-101", "1-10^-40"])
def test_enclosure_reaching_zero_sends_every_coefficient_to_exact(qv):
    # at _PREC bits q rounds up to 1, so 1 - q^n reaches 0 and the enclosures
    # cannot stay nonnegative: every coefficient m >= 1 is recomputed exactly
    spec = TuranianSpec(Family.HEINE_F, F(1, 2), F(1), F(1), QBase.exact(q=qv), 4)
    rep = sign_certificate(spec)
    coeffs = turanian_series(spec).coeffs
    assert rep == turanian.SignReport(
        SignVerdict.ALL_STRICTLY_NEG, None, min(-c for c in coeffs[1:]), 4, coeffs[0],
        "heine-f", "exact", "x^m coefficients", expected=SignVerdict.ALL_STRICTLY_NEG,
        matches_expected=True, decided_by="interval+exact", exact_fallbacks=4)
    head = heine_f_series(F(1, 2), QBase.exact(q=qv), 0)
    assert head.ratio.series(4, lift=_Interval.of).coeffs[1] is _Interval.UNBOUNDED


@pytest.mark.parametrize("family, k, decided_by, fallbacks", [
    (Family.HEINE_F, 96, "interval", 0),
    (Family.HEINE_F_TILDE, 96, "interval", 0),
    (Family.HEINE_F, 98, "interval+exact", 2),
    (Family.HEINE_F_TILDE, 98, "interval+exact", 2),
    (Family.HEINE_F, 100, "interval+exact", 4),
    (Family.HEINE_F_TILDE, 100, "interval+exact", 3),
])
def test_divisors_with_short_mantissas_near_q_1(family, k, decided_by, fallbacks):
    # for 1 - q = 2^-k near 2^-_PREC the enclosure of 1 - q^n has a mantissa
    # of a few bits, so a dividend can outgrow its divisor by more than
    # _PREC bits; the expected paths are those of an mpmath interval
    # certificate at the same precision
    q = QBase.exact(q=1 - F(1, 2 ** k))
    spec = TuranianSpec(family, F(1), F(1), F(1), q, 4)
    rep = sign_certificate(spec)
    if family == Family.HEINE_F:
        coeffs = turanian_series(spec).coeffs
    else:
        coeffs = exact_tilde_coeffs(F(1), F(1), F(1), q, 4)
    verdict, viol, min_margin = reference(coeffs)
    assert (rep.verdict, rep.first_violation) == (verdict, viol)
    assert rep.matches_expected and rep.coeff0 == coeffs[0]
    assert (rep.decided_by, rep.exact_fallbacks) == (decided_by, fallbacks)
    assert 0 < rep.min_margin <= min_margin


def view_enclosure(x):
    """_Interval.of as written on the Fraction views a and b of x: the
    reference that the field-reading version must match bit for bit."""
    a, b = x.a, x.b
    size = a.numerator.bit_length() - a.denominator.bit_length()
    if b:
        r = x.rad
        bb = (b.numerator ** 2 * r.numerator, b.denominator ** 2 * r.denominator)
        size = max(size, (bb[0].bit_length() - bb[1].bit_length()) // 2)
    k = max(_PREC + 10 - size, 0)
    while True:
        lo, rem = divmod(a.numerator << k, a.denominator)
        hi = lo + (rem != 0)
        if b:
            y, rem = divmod(bb[0] << 2 * k, bb[1])
            root = isqrt(y)
            up = root + (rem != 0 or root * root != y)
            lo, hi = (lo + root, hi + up) if b > 0 else (lo - up, hi - root)
        if lo > 0 and lo.bit_length() > _PREC + 8:
            return (lo, -k, hi, -k)
        sign = 1 if lo > 0 else x.sign()
        if sign <= 0:
            return (0, 0, 0, 0) if sign == 0 else (-1, 0, -1, 0)
        k += _PREC + 10 - lo.bit_length() if lo > 0 else k + _PREC


RADICANDS = [F(2), F(1, 2), F(3, 4), F(5, 3), F(99, 100)]
rationals = st.builds(F, st.integers(-2 ** 300, 2 ** 300), st.integers(1, 2 ** 300))


@st.composite
def quadratic_scalars(draw):
    """a + b sqrt(r) in Q and Q(sqrt r), with b > 0, b < 0 or b = 0 and the
    value 0 among the rationals; a may be -b sqrt(r) rounded to k bits, so
    that the enclosure needs more than one k to tell the sign."""
    r = draw(st.sampled_from(RADICANDS))
    b = draw(st.one_of(st.just(F(0)), rationals))
    if b and draw(st.booleans()):
        k = draw(st.integers(0, 600))
        scaled = b.numerator ** 2 * r.numerator * 4 ** k
        root = isqrt(scaled // (b.denominator ** 2 * r.denominator))
        a = F(-root if b > 0 else root, 2 ** k) + draw(st.integers(-2, 2)) * F(1, 2 ** k)
    else:
        a = draw(st.one_of(st.just(F(0)), rationals))
    return ExactScalar(a, b, r if b else None)


@settings(max_examples=300, deadline=None)
@given(quadratic_scalars())
def test_enclosure_of_an_exact_scalar_matches_the_view_based_reference(x):
    iv = _Interval.of(x)
    assert (iv.lm, iv.le, iv.hm, iv.he) == view_enclosure(x)


@settings(max_examples=300, deadline=None)
@given(st.integers(-2 ** 200, 2 ** 200), st.integers(-400, 400))
def test_exact_dyadic_is_man_times_two_to_the_exp(man, exp):
    x, want = _Interval.exact(man, exp), F(man) * F(2) ** exp
    assert (x.n, x.m, x.d, x.rad) == (want.numerator, 0, want.denominator, None)
