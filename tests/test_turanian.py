"""Turanian construction and sign certificates."""

import random
from dataclasses import replace
from fractions import Fraction as F

import mpmath
import pytest

from qturan import series, turanian
from qturan.cli import run
from qturan.qcore import QBase, qgamma
from qturan.series import g_series, heine_f_series, heine_f_tilde_series
from qturan.turanian import (
    Family,
    SignVerdict,
    TuranianSpec,
    _classify_exact,
    _classify_float,
    _shift_series_of,
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
from qturan.scalar import (
    DimensionError,
    DomainError,
    ExactModeError,
    HypothesisError,
    ex,
    fl,
)

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

    @pytest.mark.parametrize("family, mu", [(Family.HEINE_F, F(-1)),
                                            (Family.HEINE_F_TILDE, F(0))])
    @pytest.mark.parametrize("q", [Q12, QF], ids=["exact", "float"])
    def test_zero_shift_still_needs_positive_mu(self, family, mu, q):
        # the series vanishes at a zero shift, but mu lies outside the claim
        with pytest.raises(HypothesisError, match="mu must be positive"):
            sign_certificate(TuranianSpec(family, mu, F(0), F(1), q, 10))
        assert run(["turanian", "--family", family.value, "--q", "1/2", "--mu", str(mu),
                    "--alpha", "0", "--beta", "1"]) == 2

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

    TILDE = (F(1, 2), F(1, 2), F(3, 2))

    def test_undecided_rho_leaves_the_report_inconclusive(self, monkeypatch):
        # rho in [1/2, 2] puts Delta_0 = 1 - rho on both sides of 0
        monkeypatch.setattr(turanian, "_rho_interval", lambda *args: (ex(F(1, 2)), ex(2)))
        rep = delta_tilde_sign_certificate(
            TuranianSpec(Family.HEINE_F_TILDE, *self.TILDE, Q12, 12))
        assert rep.verdict == SignVerdict.INCONCLUSIVE
        assert rep.decided_by is None and rep.min_margin is None
        assert rep.matches_expected is False
        mu, alpha, beta = (str(v) for v in self.TILDE)
        assert run(["turanian", "--family", "heine-f-tilde", "--q", "1/2", "--mu", mu,
                    "--alpha", alpha, "--beta", beta]) == 1

    def test_undecided_rho_past_a_decided_delta0(self, monkeypatch):
        # rho_lo < u_1/v_1 < rho_hi < 1: Delta_0 = 1 - rho > 0 is decided,
        # Delta_1 = u_1 - rho v_1 is not, at any precision; more bits cannot
        # narrow rho, so the enclosures stop at 2 _PREC
        mu, alpha, beta = self.TILDE
        s_a, s_b, s_0, s_ab = (heine_f_series(mu + s, Q12, 1)
                               for s in (alpha, beta, 0, alpha + beta))
        ratio = F(float((s_a.product_coefficient(s_b, 1)
                         / s_0.product_coefficient(s_ab, 1)).to_mpf(30)))
        assert ratio < 1 - F(1, 10**6)
        monkeypatch.setattr(turanian, "_rho_interval", lambda *args: (
            ex(ratio - F(1, 10**6)), ex(ratio + F(1, 10**6))))
        heads, precs = [], set()
        coeff0_bound, bound_minus = turanian._coeff0_bound, turanian._Interval.bound_minus

        def head_spy(*args):
            heads.append(coeff0_bound(*args))
            return heads[-1]

        def bound_spy(u, rho, v, prec):
            precs.add(prec)
            return bound_minus(u, rho, v, prec)

        monkeypatch.setattr(turanian, "_coeff0_bound", head_spy)
        monkeypatch.setattr(turanian._Interval, "bound_minus", staticmethod(bound_spy))
        rep = delta_tilde_sign_certificate(
            TuranianSpec(Family.HEINE_F_TILDE, mu, alpha, beta, Q12, 12))
        assert len(heads) == 1 and heads[0].sign() > 0
        assert precs == {turanian._PREC, 2 * turanian._PREC}
        assert rep.verdict == SignVerdict.INCONCLUSIVE and rep.decided_by is None
        assert rep.interval_bits is None

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

    def test_a_series_past_the_order_cap_is_refused(self):
        # x = 0.99999 needs an order near 1.1e7 for its automatic tail
        with pytest.raises(DomainError, match=r"order \d+ .*at most 200000"):
            turan_point_inequality(Family.HEINE_F, F(1), F(99999, 100000),
                                   QBase.floating(F(1, 2)), "inverse")

    @pytest.mark.parametrize("order", [None, 30])
    @pytest.mark.parametrize("x", [F(1), F(3, 2)])
    @pytest.mark.parametrize("family,vectors", [(Family.HEINE_F, {}),
                                                (Family.G_NORMALIZED, CASE_A)],
                             ids=["heine", "g-t=s+1"])
    def test_outside_the_unit_disc_is_refused(self, family, vectors, x, order):
        with pytest.raises(DomainError):
            turan_point_inequality(family, F(1), x, QF, "direct", order=order, **vectors)


    @pytest.mark.parametrize("family,mu,x,vectors", [
        (Family.HEINE_F, F(1), F(1, 2), {}),
        (Family.HEINE_F_TILDE, F(3, 2), F(9, 10), {}),
        (Family.G_NORMALIZED, F(1), F(1, 2), CASE_B),
        (Family.G_NORMALIZED, F(1, 2), F(7, 10), CASE_A),
    ], ids=["heine", "tilde", "g-case-b", "g-case-a"])
    @pytest.mark.parametrize("direction", ["direct", "inverse"])
    def test_one_chain_gives_the_bits_of_three_separate_builds(
            self, family, mu, x, vectors, direction, monkeypatch):
        # F(mu), F(mu+1), F(mu+2) built one by one by the public constructors,
        # each over its own chain of q-powers
        xs = QF.scalar(x)
        order = turanian._auto_order(family, abs(xs), QF, *vectors.values())
        if family == Family.G_NORMALIZED:
            alone = [g_series(*vectors.values(), mu + k, QF, order, ref_mu=mu)
                     for k in range(3)]
        elif family == Family.HEINE_F_TILDE:
            alone = [heine_f_tilde_series(mu + k, QF, order, absolute=True) for k in range(3)]
        else:
            alone = [heine_f_series(mu + k, QF, order) for k in range(3)]
        vals = [s.eval(xs) for s in alone]
        lhs, rhs = vals[1] * vals[1], vals[0] * vals[2]
        want = lhs - rhs if direction == "direct" else rhs - lhs
        shared = turanian._shift_series_of(family, mu, (0, 1, 2), QF, order,
                                           *vectors.values())
        assert [[c.val._mpf_ for c in s.coeffs] for s in shared] == \
            [[c.val._mpf_ for c in s.coeffs] for s in alone]
        orders = []

        class CountedChain(series._Chain):
            def __init__(self, arith, q, order, prec=None):
                orders.append(order)
                super().__init__(arith, q, order, prec)

        # the three heads, built to order 0, form no q-power; one chain
        # serves all three series to the full order
        monkeypatch.setattr(series, "_Chain", CountedChain)
        ok, margin = turan_point_inequality(family, mu, x, QF, direction, **vectors)
        assert orders == [0, 0, 0, order]
        assert margin.digits == want.digits and margin.val._mpf_ == want.val._mpf_
        assert ok == (want.sign() >= 0)


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

    def test_grid_without_a_midpoint_is_refused(self):
        # two points give no triple, so the scan would pass over nothing
        with pytest.raises(DimensionError, match="at least 3 grid points, got 2"):
            logconcavity_grid_check(Family.HEINE_F, self.GRID[:2], F(1, 4), QF)

    @pytest.mark.parametrize("grid", [[1, 2, 7], [1, 1, 1]], ids=["uneven", "no-spacing"])
    def test_grid_without_one_spacing_is_refused(self, grid):
        # the midpoint test compares f(mu_(i+1))^2 with f(mu_i) f(mu_(i+2)),
        # which says nothing on unequal steps
        with pytest.raises(DimensionError, match="uniform mu grid"):
            logconcavity_grid_check(Family.HEINE_F, grid, F(1, 4), QF)


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
        shifted = _shift_series_of(Family.HEINE_F_TILDE, mu, (0, 1, 2), QF, order)
        for shift, s in enumerate(shifted):
            got = s.eval(xs)
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

    def test_g_stops_at_alpha_beta_plus_one(self):
        spec = TuranianSpec(Family.G_NORMALIZED, F(1), F(1), F(1), Q12, 16, **CASE_B)
        ok, reports = integer_shift_reduction_check(spec, 4)
        assert ok and set(reports) == {1, 2}

    def test_alpha_one_equals_direct_certificate(self):
        spec = TuranianSpec(Family.HEINE_F, F(1), F(1), F(2), Q12, 16)
        ok, reports = integer_shift_reduction_check(spec, 3)
        assert ok
        direct = delta_sign_certificate(spec)
        assert reports[1].verdict == direct.verdict

    def test_no_alpha_to_check_is_refused(self):
        spec = TuranianSpec(Family.HEINE_F, F(1), F(1), F(2), Q12, 16)
        with pytest.raises(DimensionError, match="alpha_max = 0"):
            integer_shift_reduction_check(spec, 0)
        # alpha = 1 is certified even where alpha <= beta + 1 already fails
        g_spec = TuranianSpec(Family.G_NORMALIZED, F(1), F(1), F(-1), Q12, 16, **CASE_B)
        with pytest.raises(HypothesisError, match="integer beta >= 0"):
            integer_shift_reduction_check(g_spec, 3)


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
