"""Identity verifiers: exactness in rational mode, residual behaviour in float."""

from fractions import Fraction as F

import mpmath
import pytest

from qturan import identities
from qturan.identities import (
    _kummer_sides_value,
    _linearization_sides_value,
    _phi43_rahman_series,
    _rahman_factors,
    heine_phi_q0_series,
    kummer_sides,
    linearization_sides,
    q_to_1_limit_study,
    verify_connection_formula,
    verify_finite_sum_identity,
    verify_kummer_linearization,
    verify_linearization,
    verify_rahman_product,
    verify_recqgamma,
)
from qturan.qcore import QBase, qpochhammer_finite, shifted_factorial
from qturan.scalar import (
    CollisionError,
    DomainError,
    ExactScalar,
    HypothesisError,
    PoleError,
    ex,
    fl,
)

mpmath.mp.dps = 60

Q12 = QBase.exact(q=F(1, 2))
QF = QBase.floating(F(1, 2), 50)


class TestRahmanProduct:
    def test_unit_parameters(self):
        res = verify_rahman_product(F(1), F(1), Q12, 30)
        assert res.exact_zero and res.max_abs.is_zero()

    def test_order_zero_coefficient_trivial(self):
        res = verify_rahman_product(F(1), F(2), Q12, 0)
        assert res.exact_zero

    def test_half_grid_rational_p(self):
        res = verify_rahman_product(F(3, 2), F(5, 2), QBase.exact(p=F(3, 4)), 25)
        assert res.exact_zero

    def test_quadratic_field_parameters(self):
        res = verify_rahman_product(F(1, 2), F(1), Q12, 12)
        assert res.exact_zero

    def test_removable_lower_parameter(self):
        # nu + eta = 1 makes the lower parameter 1; the 0/0 limit must verify
        res = verify_rahman_product(F(1, 2), F(1, 2), QBase.exact(p=F(1, 2)), 15)
        assert res.exact_zero

    def test_symmetric_in_nu_eta(self):
        a = verify_rahman_product(F(1), F(2), Q12, 16)
        b = verify_rahman_product(F(2), F(1), Q12, 16)
        assert a.exact_zero == b.exact_zero == True  # noqa: E712

    def test_float_mode_residual_stable_under_larger_order(self):
        a = verify_rahman_product(F(1), F(2), QF, 20)
        b = verify_rahman_product(F(1), F(2), QF, 40)
        assert b.max_rel.val <= a.max_rel.val * 10
        assert a.max_rel.val < mpmath.mpf("1e-40")


def phi43_closed_form(nu, eta, q, order):
    """4phi3 coefficients of the Rahman product as Pochhammer quotients."""
    big_a, big_b = q.q_power(nu + eta - 1), q.q_power(nu + eta)
    q2 = q.q * q.q
    removable = (big_a - 1).is_zero()
    coeffs = []
    for k in range(order + 1):
        if removable:
            up = shifted_factorial(q2, q2, k - 1) if k else q.one
            lo_a = shifted_factorial(q.q, q.q, k - 1) if k else q.one
        else:
            up = shifted_factorial(big_a, q2, k)
            lo_a = shifted_factorial(big_a, q.q, k)
        up = up * shifted_factorial(big_b, q2, k)
        den = (shifted_factorial(q.q_power(nu), q.q, k)
               * shifted_factorial(q.q_power(eta), q.q, k)
               * lo_a * shifted_factorial(q.q, q.q, k))
        coeffs.append(up / den)
    return coeffs


@pytest.mark.parametrize("q", [QBase.exact(p=F(1, 2)), QBase.exact(p=F(3, 4)), Q12],
                         ids=["p=1/2", "p=3/4", "q=1/2"])
@pytest.mark.parametrize("nu,eta", [(F(1, 2), F(7, 2)), (F(3, 2), F(5, 2)),
                                    (F(1, 2), F(1, 2)), (F(2), F(3, 2))])
def test_phi43_recurrence_equals_closed_form(q, nu, eta):
    # (1/2, 1/2) is the removable case nu + eta = 1
    got = _phi43_rahman_series(nu, eta, q, 16).coeffs
    assert list(got) == phi43_closed_form(nu, eta, q, 16)


class TestFiniteSum:
    def test_m_zero(self):
        res = verify_finite_sum_identity(F(1), F(2), Q12, 0)
        assert res.exact_zero

    def test_reference_points(self):
        assert verify_finite_sum_identity(F(1), F(2), Q12, 3).exact_zero
        assert verify_finite_sum_identity(
            F(1, 2), F(1, 2), QBase.exact(q=F(1, 4)), 5).exact_zero

    @pytest.mark.parametrize("q", [Q12, QF], ids=["exact", "float"])
    def test_is_coefficient_m_of_the_rahman_sides(self, q):
        nu, eta, order = F(1, 2), F(7, 2), 20
        (f_nu, f_eta), (phi43, e_q) = _rahman_factors(nu, eta, q, order)
        lhs, rhs = f_nu * f_eta, phi43 * e_q
        q_nu, q_eta = q.q_power(nu), q.q_power(eta)
        for m in range(order + 1):
            res = verify_finite_sum_identity(nu, eta, q, m)
            assert res.max_abs == abs(lhs.coeffs[m] - rhs.coeffs[m])
            assert res.exact_zero == (q.is_exact and lhs.coeffs[m] == rhs.coeffs[m])
            # the left side is the classical finite sum over k + l = m
            finite_sum = sum((1 / (shifted_factorial(q_nu, q.q, k)
                                   * shifted_factorial(q_eta, q.q, m - k)
                                   * shifted_factorial(q.q, q.q, k)
                                   * shifted_factorial(q.q, q.q, m - k))
                              for k in range(m + 1)), q.zero)
            dev = abs(finite_sum - lhs.coeffs[m])
            if q.is_exact:
                assert dev.is_zero() and res.exact_zero
            else:
                assert dev.val <= abs(lhs.coeffs[m]).val * mpmath.mpf("1e-48")


class TestConnectionFormula:
    def test_near_zero_argument(self):
        res = verify_connection_formula(F(1), F(1, 1000), QF)
        assert res.max_rel.val < mpmath.mpf("1e-35")

    def test_reference_points(self):
        res = verify_connection_formula(F(0), F(1), QF)
        assert res.max_rel.val < mpmath.mpf("1e-35")
        res = verify_connection_formula(F(1, 2), F(3, 2), QBase.floating("0.8", 50))
        assert res.max_rel.val < mpmath.mpf("1e-30")

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_connection_formula(F(0), F(5, 2), QF)


class TestLinearization:
    def test_alpha_one_beta_zero_zero_sides(self):
        res = verify_linearization(F(1), 1, F(0), Q12, 10)
        assert res.exact_zero
        lhs, rhs = linearization_sides(F(1), 1, F(0), Q12, 10)
        assert lhs.is_zero() and rhs.is_zero()

    def test_reference_points(self):
        assert verify_linearization(F(1), 1, F(1), Q12, 30).exact_zero
        assert verify_linearization(F(1, 2), 3, F(2), Q12, 30).exact_zero
        assert verify_linearization("1/2", "3", "2", Q12, 30).exact_zero

    def test_alpha_one_matches_manual_single_bracket(self):
        # general j-sum specialized to alpha = 1 against the hand-built bracket
        mu, beta, order = F(3, 2), F(1, 2), 14
        _, rhs = linearization_sides(mu, 1, beta, Q12, order)
        phi = lambda c: heine_phi_q0_series(c, Q12, order)
        poch = lambda c, n: qpochhammer_finite(Q12.q_power(c), Q12, n)
        manual = phi(mu + 1).scaled(poch(mu + beta, 1)) \
            - phi(mu + 1 + beta).scaled(poch(mu, 1))
        assert all((a - b).is_zero() for a, b in zip(rhs.coeffs, manual.coeffs))

    def test_each_distinct_phi_is_built_once(self, monkeypatch):
        built, build = [], identities.heine_phi_q0_series
        monkeypatch.setattr(identities, "heine_phi_q0_series",
                            lambda c, q, order: built.append(c) or build(c, q, order))
        assert verify_linearization(F(1, 2), 3, F(2), Q12, 12).exact_zero
        # ten terms, whose shifts mu + alpha, mu + alpha + beta, mu + 1 + j and
        # mu + alpha + beta - j take six values
        assert sorted(built) == [F(k, 2) for k in (1, 3, 5, 7, 9, 11)]

    def test_non_integer_alpha_rejected(self):
        with pytest.raises(HypothesisError):
            verify_linearization(F(1), F(1, 2), F(1), Q12, 10)

    def test_alpha_three_halves_rejected_on_every_path(self):
        alpha = F(3, 2)
        q9 = QBase.floating("0.9", 50)
        paths = [lambda: linearization_sides(F(1), alpha, F(1), Q12, 10),
                 lambda: kummer_sides(F(1), alpha, F(1), 10),
                 lambda: _linearization_sides_value(F(1), alpha, F(1), F(1, 2), q9),
                 lambda: _kummer_sides_value(F(1), alpha, F(1), F(1, 2), 50),
                 lambda: q_to_1_limit_study(F(1), alpha, F(1), F(1, 2), ["0.9"])]
        for path in paths:
            with pytest.raises(HypothesisError):
                path()

    def test_integral_fraction_alpha_accepted(self):
        assert verify_linearization(F(1), F(2), F(1), Q12, 12).exact_zero

    def test_float_mode(self):
        res = verify_linearization(F(1), 2, F(1), QF, 25)
        assert res.max_rel.val < mpmath.mpf("1e-40")


class TestKummerLinearization:
    def test_alpha_one_beta_zero(self):
        assert verify_kummer_linearization(F(1), 1, F(0), 10).exact_zero

    def test_reference_points(self):
        assert verify_kummer_linearization(F(1), 1, F(1), 30).exact_zero
        assert verify_kummer_linearization(F(3, 2), 2, F(1, 2), 30).exact_zero


class TestQToOneStudy:
    def test_deviations_decrease(self):
        out = q_to_1_limit_study(F(1), 1, F(1), F(1, 2),
                                 ["0.9", "0.99", "0.999"])
        devs = [r.max_abs.val for r in out]
        assert devs[0] > devs[1] > devs[2]

    def test_x_zero_constant_terms_cancel(self):
        # at x = 0 each identity reduces to its constant terms, so the
        # transformed q-sides agree with each other exactly; the distance to
        # the confluent limit is the usual O(1-q)
        from qturan.identities import _linearization_sides_value
        for qv in ("0.9", "0.99"):
            q = QBase.floating(qv, 50)
            lhs_q, rhs_q = _linearization_sides_value(F(1), 1, F(1), F(0), q)
            assert abs((lhs_q - rhs_q).val) < mpmath.mpf("1e-40")
        out = q_to_1_limit_study(F(1), 1, F(1), F(0), ["0.9", "0.99"])
        assert out[0].max_abs.val > out[1].max_abs.val

    def test_beta_zero_identity_degenerates(self):
        out = q_to_1_limit_study(F(1), 1, F(0), F(1, 2), ["0.9", "0.99"])
        for r in out:
            assert r.max_abs.val < mpmath.mpf("1e-40")


class TestRecQGamma:
    def test_beta_zero_both_sides_vanish(self):
        for m in (0, 1, 3):
            res = verify_recqgamma(F(1), F(0), Q12, m)
            assert res.exact_zero

    def test_reference_points(self):
        assert verify_recqgamma(F(1), F(1), Q12, 0).exact_zero
        assert verify_recqgamma(F(1, 2), F(3, 2), QBase.exact(q=F(1, 4)), 4).exact_zero

    def test_float_mode_agrees(self):
        res = verify_recqgamma(F(1), F(1), QF, 2)
        assert res.max_rel.val < mpmath.mpf("1e-38")

    @pytest.mark.parametrize("mu, beta", [(F(0), F(1)), (F(1), F(-1)), (F(1, 2), F(-1, 2))])
    def test_gamma_pole_is_an_error_in_both_modes(self, mu, beta):
        # mu = 0 or mu + beta = 0: a Gamma_q pole inside the summation
        for m in (0, 3):
            with pytest.raises(CollisionError):
                verify_recqgamma(mu, beta, Q12, m)
            with pytest.raises(PoleError):
                verify_recqgamma(mu, beta, QF, m)


def _divided_compare(pairs):
    """max |lhs - rhs| and max |lhs - rhs| / max(|lhs|, |rhs|) with every
    division made, 0/0 taken as 0: the reference for _compare's residuals."""
    max_abs = max_rel = None
    for lhs, rhs in pairs:
        diff = abs(lhs - rhs)
        denom = max(abs(lhs), abs(rhs))
        rel = diff if denom.is_zero() else diff / denom
        max_abs = diff if max_abs is None or diff > max_abs else max_abs
        max_rel = rel if max_rel is None or rel > max_rel else max_rel
    return max_abs, max_rel


def _text(x):
    return x.canonical() if isinstance(x, ExactScalar) else (x.val._mpf_, x.digits)


@pytest.mark.parametrize("pairs", [
    [(ex(F(3, 4)), ex(F(3, 4)))],
    [(ex(0), ex(0)), (ex(F(-2, 3)), ex(F(-2, 3)))],
    [(ExactScalar(1, 2, 3), ExactScalar(1, 2, 3)), (ex(F(1, 5)), ex(F(1, 7)))],
    [(ex(F(1, 5)), ex(F(1, 7))), (ex(2), ex(2))],
    [(fl(F(3, 4), 50), fl(F(3, 4), 50))],
    [(fl(F(3, 4), 30), fl(F(3, 4), 60)), (fl(0, 80), fl(0, 15))],
    [(fl(F(1, 3), 50), fl(F(1, 3), 80)), (fl(F(1, 3), 50), fl(F(2, 7), 50))],
    [(fl(F(-1, 3), 15), fl(F(-1, 3), 15)), (fl(F(-1, 3), 15), fl(F(-1, 3) + F(1, 10 ** 12), 60))],
], ids=["exact-zero", "exact-zeros", "exact-mixed", "exact-zero-last", "float-zero",
        "float-digits", "float-mixed", "float-tiny"])
def test_compare_skips_the_division_of_a_zero_difference(pairs):
    """A zero difference takes itself as the relative residual: the value and
    digits the division gave, in both modes."""
    mode = "exact" if isinstance(pairs[0][0], ExactScalar) else "float"
    res = identities._compare(pairs, mode, 3, "case")
    want_abs, want_rel = _divided_compare(pairs)
    assert (_text(res.max_abs), _text(res.max_rel)) == (_text(want_abs), _text(want_rel))
    assert res.exact_zero == (mode == "exact" and all((a - b).is_zero() for a, b in pairs))
