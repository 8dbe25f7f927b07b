"""Turanian construction and sign certificates."""

import random
from dataclasses import replace
from fractions import Fraction as F

import mpmath
import pytest

from qturan.qcore import QBase, qgamma
from qturan.series import heine_f_series
from qturan.turanian import (
    Family,
    SignVerdict,
    TuranianSpec,
    _classify_exact,
    _classify_float,
    _shift_series,
    delta_sign_certificate,
    delta_tilde_sign_certificate,
    gamma_sign_certificate,
    integer_shift_reduction_check,
    logconcavity_grid_check,
    sign_certificate,
    turan_point_inequality,
    turanian_series,
    verdict_satisfies,
)
from qturan.scalar import ExactModeError, HypothesisError, ex, fl

mpmath.mp.dps = 60

Q12 = QBase.exact(q=F(1, 2))
QF = QBase.floating(F(1, 2), 50)

CASE_B = dict(a=(F(2), F(3)), b=(F(1), F(2)))      # chain case (b): nonnegative
CASE_A = dict(a=(F(1), F(1), F(1)), b=(F(2), F(2)))  # chain case (a): nonpositive


def heine_spec(mu, alpha, beta, q=Q12, order=20):
    return TuranianSpec(Family.HEINE_F, mu, alpha, beta, q, order)


def test_delta1_closed_form_spot():
    ts = turanian_series(heine_spec(F(1), F(1), F(1)))
    assert ts.coeffs[0].to_fraction() == 0
    assert ts.coeffs[1].to_fraction() == F(-20, 21)


def test_delta1_closed_form_on_grid():
    # delta_1 = [1/(1-q^(mu+a)) + 1/(1-q^(mu+b)) - 1/(1-q^mu) - 1/(1-q^(mu+a+b))]/(1-q)
    q = F(1, 2)
    for mu, al, be in ((F(1), F(2), F(1)), (F(1, 2), F(1, 2), F(3, 2)),
                      (F(2), F(1), F(3))):
        ts = turanian_series(heine_spec(mu, al, be, order=2))
        got = ts.coeffs[1]
        qp = Q12.q_power
        expect = (1 / (1 - qp(mu + al)) + 1 / (1 - qp(mu + be))
                  - 1 / (1 - qp(mu)) - 1 / (1 - qp(mu + al + be))) / (1 - qp(F(1)))
        assert (got - expect).is_zero()


def test_turanian_symmetry_in_alpha_beta():
    rng = random.Random(23)
    for _ in range(6):
        mu = F(rng.randint(1, 4), 2)
        al = F(rng.randint(1, 4), 2)
        be = F(rng.randint(1, 4), 2)
        s1 = turanian_series(heine_spec(mu, al, be, order=12))
        s2 = turanian_series(heine_spec(mu, be, al, order=12))
        assert all((a - b).is_zero() for a, b in zip(s1.coeffs, s2.coeffs))


def test_spec_stores_shifts_as_fractions():
    spec = TuranianSpec(Family.G_NORMALIZED, 1, "1/2", F(2), QF, 10, (2, "3"), ("1", F(2)))
    assert (spec.mu, spec.alpha, spec.beta, spec.a, spec.b) == (
        F(1), F(1, 2), F(2), (F(2), F(3)), (F(1), F(2)))
    assert all(type(v) is F for v in (spec.mu, spec.alpha, spec.beta, *spec.a, *spec.b))


def test_float_valued_shift_raises_type_error():
    for mu in (fl(1, 50), mpmath.mpf(1), 1.0):
        with pytest.raises(TypeError):
            TuranianSpec(Family.HEINE_F, mu, F(1), F(1), QF, 10)
        with pytest.raises(TypeError):
            heine_f_series(mu, QF, 4)


def test_degenerate_shifts_give_zero_series():
    for al, be in ((F(0), F(2)), (F(1), F(0))):
        assert turanian_series(heine_spec(F(1), al, be)).is_zero()
    spec = TuranianSpec(Family.G_NORMALIZED, F(1), F(0), F(1), Q12, 10, **CASE_B)
    assert turanian_series(spec).is_zero()


@pytest.mark.parametrize("q", [Q12, QF], ids=["exact", "float"])
def test_certificates_need_order_at_least_one(q):
    # below order 1 there is no Delta_m with m >= 1: any verdict would be vacuous
    for order in (0, -3):
        for spec in (heine_spec(F(1), F(1), F(1), q, order),
                     heine_spec(F(1), F(0), F(1), q, order),
                     TuranianSpec(Family.HEINE_F_TILDE, F(1), F(1), F(1), q, order),
                     TuranianSpec(Family.G_NORMALIZED, F(1), F(1), F(1), q, order,
                                  **CASE_B)):
            with pytest.raises(HypothesisError, match="order >= 1"):
                sign_certificate(spec)
    rep = sign_certificate(heine_spec(F(1), F(1), F(1), q, 1))
    assert rep.verdict == SignVerdict.ALL_STRICTLY_NEG and rep.order_checked == 1


class TestDeltaCertificate:
    def test_unit_point(self):
        rep = delta_sign_certificate(heine_spec(F(1), F(1), F(1), order=40))
        assert rep.verdict == SignVerdict.ALL_STRICTLY_NEG
        assert rep.coeff0.to_fraction() == 0
        assert rep.matches_expected
        assert rep.min_margin.sign() > 0

    def test_half_grid_point(self):
        q34 = QBase.exact(q=F(3, 4))
        rep = delta_sign_certificate(
            TuranianSpec(Family.HEINE_F, F(1, 2), F(3, 2), F(1, 2), q34, 24))
        assert rep.verdict == SignVerdict.ALL_STRICTLY_NEG

    def test_degenerate(self):
        rep = delta_sign_certificate(heine_spec(F(1), F(0), F(2)))
        assert rep.verdict == SignVerdict.ZERO and rep.matches_expected

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisError):
            delta_sign_certificate(heine_spec(F(-1), F(1), F(1)))

    def test_float_mode_certificate(self):
        rep = delta_sign_certificate(
            TuranianSpec(Family.HEINE_F, F(1), F(1), F(1), QF, 30))
        assert rep.verdict == SignVerdict.ALL_STRICTLY_NEG
        assert rep.mode == "float"


class TestDeltaTildeCertificate:
    def test_integer_shifts_exact_rho(self):
        rep = delta_tilde_sign_certificate(
            TuranianSpec(Family.HEINE_F_TILDE, F(1), F(1), F(1), Q12, 40))
        assert rep.verdict == SignVerdict.ALL_STRICTLY_POS
        # normalized m=0 coefficient is 1 - rho = 1 - (1-q)/(1-q^2) = 1/3
        assert rep.coeff0.to_fraction() == F(1, 3)

    def test_half_integer_shifts_enclosure(self):
        rep = delta_tilde_sign_certificate(
            TuranianSpec(Family.HEINE_F_TILDE, F(1, 2), F(1, 2), F(2), Q12, 24))
        assert rep.verdict == SignVerdict.ALL_STRICTLY_POS
        assert rep.min_margin.sign() > 0

    def test_exact_series_routes_to_certificate(self):
        spec = TuranianSpec(Family.HEINE_F_TILDE, F(1), F(1), F(1), Q12, 10)
        with pytest.raises(ExactModeError):
            turanian_series(spec)

    def test_float_cross_check_against_gamma_scaling(self):
        # tilde coefficients relate to plain-f coefficients through the
        # Gamma products, with opposite sign pattern
        mu, al, be = F(1), F(1), F(2)
        tilde = turanian_series(
            TuranianSpec(Family.HEINE_F_TILDE, mu, al, be, QF, 12))
        plain = turanian_series(
            TuranianSpec(Family.HEINE_F, mu, al, be, QF, 12))
        assert all(c.val < 0 for c in plain.coeffs[1:])
        assert all(c.val > 0 for c in tilde.coeffs[1:])
        # reconstruct the tilde coefficient from the plain one at m = 1:
        # delta~_1 = [A - B] f-term difference with A = 1/(G(mu+a)G(mu+b)) etc.
        g = lambda z: qgamma(z, QF).val
        A = 1 / (g(mu + al) * g(mu + be))
        B = 1 / (g(mu) * g(mu + al + be))
        f_a = heine_f_series(mu + al, QF, 2).coeffs
        f_b = heine_f_series(mu + be, QF, 2).coeffs
        f_0 = heine_f_series(mu, QF, 2).coeffs
        f_ab = heine_f_series(mu + al + be, QF, 2).coeffs
        manual = (A * (f_a[0] * f_b[1] + f_a[1] * f_b[0]).val
                  - B * (f_0[0] * f_ab[1] + f_0[1] * f_ab[0]).val)
        assert abs(tilde.coeffs[1].val - manual) < mpmath.mpf("1e-40")


class TestGammaCertificate:
    def test_caseb_point(self):
        spec = TuranianSpec(Family.G_NORMALIZED, F(1), F(1), F(2), Q12, 30, **CASE_B)
        rep = gamma_sign_certificate(spec)
        assert rep.chain_case == "b"
        assert rep.expected == SignVerdict.ALL_NONNEG
        assert verdict_satisfies(rep.verdict, rep.expected)
        assert rep.coeff0.sign() >= 0
        assert rep.matches_expected

    def test_casea_point(self):
        spec = TuranianSpec(Family.G_NORMALIZED, F(1), F(1), F(1), Q12, 30, **CASE_A)
        rep = gamma_sign_certificate(spec)
        assert rep.chain_case == "a"
        assert rep.expected == SignVerdict.ALL_NONPOS
        assert rep.matches_expected

    def test_degenerate_alpha(self):
        spec = TuranianSpec(Family.G_NORMALIZED, F(1), F(0), F(1), Q12, 10, **CASE_B)
        assert gamma_sign_certificate(spec).verdict == SignVerdict.ZERO

    def test_coefficientwise_hypothesis(self):
        spec = TuranianSpec(Family.G_NORMALIZED, F(1), F(3), F(1), Q12, 10, **CASE_B)
        with pytest.raises(HypothesisError):
            gamma_sign_certificate(spec)
        rep = gamma_sign_certificate(spec, require_theorem=False)
        assert rep.expected is None

    def test_non_integer_alpha_rejected(self):
        spec = TuranianSpec(Family.G_NORMALIZED, F(1), F(1, 2), F(1), Q12, 10, **CASE_B)
        with pytest.raises(HypothesisError):
            gamma_sign_certificate(spec)

    @pytest.mark.parametrize("q", [Q12, QF], ids=["exact", "float"])
    @pytest.mark.parametrize("alpha", [F(1, 2), F(1, 10**11)], ids=["half", "1e-11"])
    def test_non_integer_alpha_rejected_in_both_modes(self, q, alpha):
        # a shift within 1e-9 of an integer is not that integer in float mode either
        spec = TuranianSpec(Family.G_NORMALIZED, F(1), alpha, F(1), q, 10, **CASE_B)
        with pytest.raises(HypothesisError, match="alpha must be a nonnegative integer"):
            gamma_sign_certificate(spec)
        with pytest.raises(HypothesisError, match="integer beta >= 0"):
            gamma_sign_certificate(replace(spec, alpha=1, beta=1 + alpha))

    def test_neither_chain_raises_unless_loosened(self):
        # a=(1,4), b=(3,3) at q=1/2: c=(1,15), d=(7,7) fails both chains
        spec = TuranianSpec(Family.G_NORMALIZED, F(1), F(1), F(1), Q12, 10,
                            (F(1), F(4)), (F(3), F(3)))
        with pytest.raises(HypothesisError):
            gamma_sign_certificate(spec)
        rep = gamma_sign_certificate(spec, require_theorem=False)
        assert rep.expected is None and rep.chain_case is None


class TestPointInequality:
    def test_caseb_direct(self):
        ok, margin = turan_point_inequality(
            Family.G_NORMALIZED, F(1), F(1, 2), QF, "direct", **CASE_B)
        assert ok and margin.val > 0

    def test_casea_inverse(self):
        ok, margin = turan_point_inequality(
            Family.G_NORMALIZED, F(1), F(1, 2), QF, "inverse", **CASE_A)
        assert ok and margin.val > 0

    def test_heine_x_zero_equality(self):
        ok, margin = turan_point_inequality(
            Family.HEINE_F, F(1), F(0), QF, "inverse")
        assert ok and margin.val == 0


class TestLogConcavityScan:
    GRID = [F(k, 2) for k in range(1, 9)]

    def test_heine_f_log_convex(self):
        ok, margins = logconcavity_grid_check(Family.HEINE_F, self.GRID,
                                              F(1, 4), QF)
        assert ok and all(m.val >= 0 for m in margins)

    def test_tilde_log_concave(self):
        ok, _ = logconcavity_grid_check(Family.HEINE_F_TILDE, self.GRID,
                                        F(1, 4), QF)
        assert ok


@pytest.mark.parametrize("x", [F(1, 10), F(1, 2), F(9, 10)])
def test_pointwise_tilde_values_are_heine_over_gamma(x):
    # the one family-series map applies the 1/Gamma_q(mu) scale of the tilde family;
    # both sides truncate at the same order, so they agree to rounding
    order = 200
    xs = fl(x, 50)

    def reference(mu):
        return heine_f_series(mu, QF, order).eval(xs) / qgamma(mu, QF)

    grid = [F(k, 2) for k in range(1, 8)]
    for mu in grid:
        for shift in (0, 1, 2):
            got = _shift_series(Family.HEINE_F_TILDE, mu, shift, QF, order).eval(xs)
            want = reference(mu + shift)
            assert abs((got - want).val) <= mpmath.mpf("1e-45") * abs(want.val)
    ok, margin = turan_point_inequality(Family.HEINE_F_TILDE, F(3, 2), x, QF,
                                        "direct", order=order)
    vals = [reference(F(3, 2) + k) for k in range(3)]
    assert ok and abs((margin - (vals[1] * vals[1] - vals[0] * vals[2])).val) \
        <= mpmath.mpf("1e-45") * abs((vals[1] * vals[1]).val)
    ok, margins = logconcavity_grid_check(Family.HEINE_F_TILDE, grid, x, QF, order=order)
    vals = [reference(mu) for mu in grid]
    for i, m in enumerate(margins):
        want = vals[i + 1] * vals[i + 1] - vals[i] * vals[i + 2]
        assert abs((m - want).val) <= mpmath.mpf("1e-45") * abs((vals[i + 1] ** 2).val)


class TestIntegerShiftReduction:
    def test_caseb_vectors(self):
        spec = TuranianSpec(Family.G_NORMALIZED, F(1), F(1), F(3), Q12, 16, **CASE_B)
        ok, reports = integer_shift_reduction_check(spec, 4)
        assert ok and set(reports) == {1, 2, 3, 4}
        assert all(verdict_satisfies(r.verdict, SignVerdict.ALL_NONNEG)
                   for r in reports.values())

    def test_casea_vectors(self):
        spec = TuranianSpec(Family.G_NORMALIZED, F(1), F(1), F(2), Q12, 16, **CASE_A)
        ok, reports = integer_shift_reduction_check(spec, 3)
        assert ok and set(reports) == {1, 2, 3}
        assert all(verdict_satisfies(r.verdict, SignVerdict.ALL_NONPOS)
                   for r in reports.values())

    def test_alpha_one_equals_direct_certificate(self):
        spec = TuranianSpec(Family.HEINE_F, F(1), F(1), F(2), Q12, 16)
        ok, reports = integer_shift_reduction_check(spec, 3)
        assert ok
        direct = delta_sign_certificate(spec)
        assert reports[1].verdict == direct.verdict


def test_proof_inequality_q_powers():
    # q^a + q^b < 1 + q^(a+b) for positive a, b
    for q in (Q12, QBase.exact(q=F(3, 4))):
        for al in (F(1, 2), F(1), F(2)):
            for be in (F(1, 2), F(1), F(2)):
                lhs = q.q_power(al) + q.q_power(be)
                rhs = 1 + q.q_power(al + be)
                assert (rhs - lhs).sign() > 0


@pytest.mark.parametrize("values,verdict,viol", [
    ([0, 0, 0], SignVerdict.ZERO, None),
    ([F(1, 3), 0, 2, 0], SignVerdict.ALL_NONNEG, None),
    ([F(-1, 3), -2, F(-5, 7)], SignVerdict.ALL_STRICTLY_NEG, None),
    ([0, F(-1, 2), 0, 3, -1], SignVerdict.MIXED, 4),
])
def test_float_and_exact_classifiers_agree(values, verdict, viol):
    exact = [ex(v) for v in values]
    floats = [fl(v, 50) for v in values]
    got_exact = _classify_exact(exact)
    got_float = _classify_float(floats, [mpmath.mpf("1e-45")] * len(values))
    assert got_exact[:2] == got_float[:2] == (verdict, viol)
    if got_exact[2] is None:
        assert got_float[2] is None
    else:
        assert got_exact[2].to_mpf(50) == got_float[2].val


def test_float_classifier_gate_is_inconclusive_near_zero():
    tail = [fl(1, 50), fl("5e-45", 50)]
    verdict, viol, margin = _classify_float(tail, [mpmath.mpf("1e-45")] * 2)
    assert (verdict, viol, margin) == (SignVerdict.INCONCLUSIVE, None, None)
