"""The interval path of exact sign certificates never disagrees with exact signs.

Each certificate decides the sign of every Turanian coefficient from an
outward-rounded interval and recomputes exactly only the coefficients whose
interval contains 0.  The reference here classifies the exact coefficients
of the full exact Cauchy products instead.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from qturan.qcore import QBase, qpochhammer_finite
from qturan.scalar import ex
from qturan.series import TruncatedSeries, heine_f_series
from qturan.turanian import (
    Family,
    SignVerdict,
    TuranianSpec,
    _exact_mode_bounds,
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
    coeff0, bounds, fallbacks = _exact_mode_bounds((one, one, one, bumped),
                                                   [(ex(1), ex(1))])
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
