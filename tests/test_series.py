"""Series constructors and arithmetic."""

import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qturan.qcore import QBase, qgamma, qgamma_ratio, qpochhammer_finite, qpochhammer_infinite
from qturan.series import (
    _SCALAR_ARITH,
    PhiSpec,
    TermRatio,
    TruncatedSeries,
    g_relative_prefactor,
    g_series,
    heine_f_series,
    heine_f_tilde_series,
    kummer_1f1_unit_top,
    kummer_1f1_value,
    modified_qbessel_i1,
    qbessel_j1,
    qbessel_j2,
    tphis_series,
)
from qturan.scalar import (
    CollisionError,
    DomainError,
    ExactModeError,
    HypothesisError,
    ModeMismatchError,
    PoleError,
    _float,
    ex,
    fl,
)

mpmath.mp.dps = 60

Q12 = QBase.exact(q=F(1, 2))
QF = QBase.floating(F(1, 2), 50)


def test_series_eval_example():
    s = TruncatedSeries((ex(1), ex(2), ex(3)), 2)
    assert s.eval(ex(2)).to_fraction() == 17


def test_series_arithmetic_truncates_to_smaller_order():
    a = TruncatedSeries(tuple(ex(i) for i in range(5)), 4)
    b = TruncatedSeries((ex(1), ex(1)), 1)
    assert (a + b).order == 1
    assert (a * b).order == 1
    assert (a - b).coeffs[1].to_fraction() == 0


def test_cauchy_product_identity_and_symmetry():
    rng = random.Random(2)
    one = TruncatedSeries(tuple([ex(1)] + [ex(0)] * 6), 6)
    b = TruncatedSeries(tuple(ex(F(rng.randint(-9, 9), rng.randint(1, 5)))
                              for _ in range(7)), 6)
    c = TruncatedSeries(tuple(ex(F(rng.randint(-9, 9), rng.randint(1, 5)))
                              for _ in range(7)), 6)
    assert all((x - y).is_zero() for x, y in zip((one * b).coeffs, b.coeffs))
    left = b * c
    right = c * b
    assert all((x - y).is_zero() for x, y in zip(left.coeffs, right.coeffs))


def _float_pair(name, q, order):
    if name == "heine":
        return heine_f_series(F(1, 2), q, order), heine_f_series(F(5, 2), q, order)
    if name == "g-b":                   # t = s: d = 1, the dot loop
        return (g_series((2, 3), (1, 2), F(1), q, order),
                g_series((2, 3), (1, 2), F(2), q, order))
    # t = s: terms (-1)^n q^binom(n,2) (a; q)_n / ((b; q)_n (q; q)_n)
    return (tphis_series(PhiSpec((q.q_power(F(2)),), (q.q_power(F(1)),), q), order),
            tphis_series(PhiSpec((q.q_power(F(1, 2)),), (q.q_power(F(3)),), q), order))


@pytest.mark.parametrize("qv", [F(1, 4), F(3, 4)])
@pytest.mark.parametrize("name,order", [("heine", 60), ("g-b", 60), ("tphis", 20),
                                        ("tphis", 60)])
def test_float_product_coefficient_is_the_product_coefficient(name, order, qv):
    """One float coefficient of a Cauchy product, taken alone by ``dot``,
    has the bits of the whole product's, whether ``convolve`` packs the
    sequences (Heine, the alternating tphis at order 20) or runs the dot loop
    (the d = 1 series at order 60)."""
    a, b = _float_pair(name, QBase.floating(qv, 50), order)
    product = a * b
    for m in range(order + 1):
        got = a.product_coefficient(b, m)
        assert (got.val._mpf_, got.digits) == (product.coeffs[m].val._mpf_, 50)


def test_series_mode_mismatch():
    s = TruncatedSeries((ex(1), ex(2)), 1)
    with pytest.raises(ModeMismatchError):
        s.eval(fl(2))


class TestTermRatio:
    def test_upper_sq_is_a_base_q_squared_pair(self):
        # (a; q)_n (-a; q)_n = (a^2; q^2)_n, so upper (a, -a) is upper_sq (a^2,)
        for q in (Q12, QBase.exact(q=F(3, 4))):
            a = q.q_power(F(1, 2))
            paired = TermRatio(q.one, (a, -a), (q.q_power(F(3, 2)),), q).series(12)
            squared = TermRatio(q.one, (), (q.q_power(F(3, 2)),), q,
                                upper_sq=(a * a,)).series(12)
            assert paired.coeffs == squared.coeffs

    def test_upper_sq_coefficients(self):
        w = ex(F(1, 3))
        ts = TermRatio(Q12.one, (), (), Q12, upper_sq=(w,)).series(8)
        q2 = QBase.exact(q=F(1, 4))
        for n in range(9):
            want = (qpochhammer_finite(w, q2, n)
                    / qpochhammer_finite(Q12.q, Q12, n)).to_fraction()
            assert ts.coeffs[n].to_fraction() == want

    @pytest.mark.parametrize("d,noted", [(0, True), (1, False), (2, False)])
    def test_tail_note_exactly_when_d_is_zero(self, d, noted):
        ts = TermRatio(Q12.one, (), (Q12.q,), Q12, d, Q12.one).series(4)
        assert (ts.tail_note is not None) == noted
        if not noted:
            ts.eval(ex(3))

    @pytest.mark.parametrize("x", [F(1), F(-1), F(3, 2)])
    def test_j1_sum_and_e_q_refuse_x_outside_the_unit_disc(self, x):
        # J1's sum and e_q: d = 0 series built with no constructor of their own
        j1_sum = TermRatio(QF.one, (), (QF.q ** 2,), QF, 0, QF.one).series(30)
        e_q = TermRatio(Q12.one, (), (), Q12).series(30)
        with pytest.raises(DomainError, match="[|]x[|] < 1"):
            j1_sum.eval(fl(x))
        with pytest.raises(DomainError, match="[|]x[|] < 1"):
            e_q.eval(ex(x))


class TestTphis:
    def test_zero_upper_parameters_coefficient(self):
        spec = PhiSpec((Q12.zero, Q12.zero), (Q12.q_power(F(1)),), Q12)
        ts = tphis_series(spec, 3)
        assert ts.coeffs[0].to_fraction() == 1
        assert ts.coeffs[1].to_fraction() == 4

    def test_parameter_cancellation(self):
        # equal upper and lower parameter: coefficients (-1)^n q^binom(n,2)/(q;q)_n
        spec = PhiSpec((Q12.q,), (Q12.q,), Q12)
        ts = tphis_series(spec, 6)
        for n in range(7):
            qq = qpochhammer_finite(Q12.q, Q12, n).to_fraction()
            expect = (-1) ** n * F(1, 2) ** (n * (n - 1) // 2) / qq
            assert ts.coeffs[n].to_fraction() == expect

    def test_supergeometric_decay_when_t_equals_s(self):
        spec = PhiSpec((Q12.q_power(F(2)),), (Q12.q_power(F(1)),), Q12)
        ts = tphis_series(spec, 30)
        # ratio of consecutive coefficients shrinks like q^n
        for n in range(4, 30):
            ratio = abs(ts.coeffs[n + 1]) / abs(ts.coeffs[n])
            assert ratio < ex(F(1, 2)) ** (n - 1)

    def test_convergence_guard(self):
        with pytest.raises(DomainError):
            PhiSpec((Q12.one, Q12.one, Q12.one), (Q12.q,), Q12)

    def test_lower_collision(self):
        # lower parameter q^{-1} hits zero factor at n = 2
        spec = PhiSpec((Q12.zero,), (Q12.q_power(F(-1)),), Q12)
        with pytest.raises(CollisionError):
            tphis_series(spec, 5)


class TestHeineF:
    def test_reference_coefficients(self):
        ts = heine_f_series(F(1), Q12, 2)
        assert [c.to_fraction() for c in ts.coeffs] == [1, 4, F(64, 9)]

    def test_mu_zero_rejected(self):
        with pytest.raises(HypothesisError):
            heine_f_series(F(0), Q12, 3)

    def test_coefficients_decrease_in_mu(self):
        # termwise monotonicity, exact
        rows = [heine_f_series(mu, Q12, 8).coeffs
                for mu in (F(1, 2), F(1), F(3, 2), F(2))]
        for n in range(1, 9):
            for lo, hi in zip(rows, rows[1:]):
                assert hi[n] < lo[n]


class TestHeineFTilde:
    def test_relative_equals_heine_f(self):
        rel = heine_f_tilde_series(F(3, 2), Q12, 6)
        base = heine_f_series(F(3, 2), Q12, 6)
        assert all((a - b).is_zero() for a, b in zip(rel.coeffs, base.coeffs))

    def test_absolute_times_gamma_recovers_f(self):
        mu = F(3, 2)
        absolute = heine_f_tilde_series(mu, QF, 10, absolute=True)
        gamma = qgamma(mu, QF)
        base = heine_f_series(mu, QF, 10)
        for a, b in zip(absolute.coeffs, base.coeffs):
            assert abs((a * gamma - b).val) < mpmath.mpf("1e-40")

    def test_absolute_needs_float(self):
        with pytest.raises(ExactModeError):
            heine_f_tilde_series(F(1), Q12, 4, absolute=True)


class TestGSeries:
    A1, B1 = (F(2), F(3)), (F(1), F(2))

    def test_leading_coefficient_relative(self):
        ts = g_series(self.A1, self.B1, F(1), Q12, 4)
        assert ts.coeffs[0].to_fraction() == 1

    def test_leading_coefficient_absolute_matches_gamma_ratio(self):
        ts = g_series(self.A1, self.B1, F(1), QF, 4, absolute=True)
        want = (qgamma(F(3), QF).val * qgamma(F(4), QF).val
                / (qgamma(F(2), QF).val * qgamma(F(3), QF).val))
        assert abs(ts.coeffs[0].val - want) < mpmath.mpf("1e-38") * abs(want)

    def test_equal_vectors_cancel(self):
        # a = b: Gamma ratio is 1 and parameter factors cancel termwise
        ts = g_series((F(1),), (F(1),), F(2), Q12, 6)
        for n in range(7):
            qq = qpochhammer_finite(Q12.q, Q12, n).to_fraction()
            expect = (F(1, 2) ** (n * (n - 1) // 2)) * F(1, 2) ** n / qq
            assert ts.coeffs[n].to_fraction() == expect

    def test_coefficient_against_term_oracle(self):
        # first Example-1 coefficient by direct product of factors
        q = F(1, 2)
        ts = g_series(self.A1, self.B1, F(1), Q12, 1)
        num = (1 - q ** 3) * (1 - q ** 4)
        den = (1 - q ** 2) * (1 - q ** 3) * (1 - q)
        assert ts.coeffs[1].to_fraction() == num / den * (1 - q)

    def test_shifted_prefactor_is_relative_gamma_ratio(self):
        # exact relative prefactor equals the float absolute quotient
        shifted = g_series(self.A1, self.B1, F(3), Q12, 0, ref_mu=F(1))
        base_terms = (qgamma(F(5), QF).val * qgamma(F(6), QF).val
                      / (qgamma(F(4), QF).val * qgamma(F(5), QF).val))
        ref_terms = (qgamma(F(3), QF).val * qgamma(F(4), QF).val
                     / (qgamma(F(2), QF).val * qgamma(F(3), QF).val))
        want = base_terms / ref_terms
        got = shifted.coeffs[0].to_mpf(50)
        assert abs(got - want) < mpmath.mpf("1e-38") * abs(want)

    def test_lower_exponent_zero_collides_at_every_shift(self):
        # b_1 + mu = 0: (q^(b+mu); q)_n and the relative prefactor both vanish
        for mu in (F(0), F(1), F(2)):
            with pytest.raises(CollisionError):
                g_series((F(2), F(3)), (F(0), F(2)), mu, Q12, 10, ref_mu=F(0))

    def test_lower_exponent_zero_is_a_collision_before_the_gamma_pole(self):
        # qgamma_ratio alone calls b + mu = 0 a pole; the prefactor names it a collision
        with pytest.raises(PoleError):
            qgamma_ratio(F(0), 2, Q12)
        for q in (Q12, QF):
            with pytest.raises(CollisionError):
                g_relative_prefactor((F(2), F(3)), (F(0), F(2)), F(0), 2, q)
            with pytest.raises(CollisionError):
                g_series((F(2), F(3)), (F(0), F(2)), F(2), q, 10, ref_mu=F(0))

    def test_upper_exponent_zero_is_a_gamma_pole(self):
        # Gamma_q(a + mu) is infinite at a + mu = 0: no relative prefactor exists
        with pytest.raises(PoleError):
            g_relative_prefactor((F(0), F(3)), (F(1), F(2)), F(0), 1, Q12)
        assert g_relative_prefactor((F(0), F(3)), (F(1), F(2)), F(0), 0, Q12).to_fraction() == 1

    @pytest.mark.parametrize("qv", [F(1, 2), F(3, 4)])
    @pytest.mark.parametrize("a, b, ref", [((F(1, 2),), (F(1), F(3, 2)), F(0)),
                                           ((F(1, 2), F(3, 2)), (F(1),), F(1, 2)),
                                           ((F(1, 2), F(1), F(5, 2)), (F(3, 2), F(2)), F(1))])
    def test_prefactor_t_ne_s_matches_float_gamma_quotient(self, qv, a, b, ref):
        # half-integer exponents put the exact prefactor in Q(sqrt q) at both bases
        q, qf = QBase.exact(q=qv), QBase.floating(qv, 50)
        for sigma in range(4):
            got = g_relative_prefactor(a, b, ref, sigma, q)
            want = mpmath.mpf(1)
            for x, power in [(x, 1) for x in a] + [(x, -1) for x in b]:
                want *= (qgamma(x + ref + sigma, qf).val / qgamma(x + ref, qf).val) ** power
            assert abs(got.to_mpf(50) - want) < mpmath.mpf("1e-40") * abs(want)
            assert sigma == 0 or not got.is_rational()

    def test_negative_parameters_rejected(self):
        with pytest.raises(HypothesisError):
            g_series((F(-1),), (F(1),), F(1), Q12, 3)

    def test_t_equals_s_plus_one_tail_note(self):
        ts = g_series((F(1), F(1), F(1)), (F(2), F(2)), F(1), Q12, 3)
        assert "| < 1" in ts.tail_note
        with pytest.raises(DomainError):
            ts.eval(ex(F(3, 2)))


class TestQBessel:
    def test_value_at_zero(self):
        assert qbessel_j1(F(0), F(0), QF, 40).val == 1
        assert qbessel_j2(F(0), F(0), QF, 40).val == 1
        assert qbessel_j1(F(1), F(0), QF, 40).val == 0
        assert qbessel_j2(F(1), F(0), QF, 40).val == 0

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            qbessel_j1(F(0), F(2), QF, 40)
        with pytest.raises(DomainError):
            modified_qbessel_i1(F(0), F(5, 2), QF, 40)
        with pytest.raises(PoleError):
            modified_qbessel_i1(F(-2), F(1), QF, 40)

    @pytest.mark.parametrize("fn", [qbessel_j1, qbessel_j2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_negative_integer_alpha_is_the_removable_limit(self, fn, k):
        q = QBase.floating(F(1, 2), 80)
        at = fn(F(-k), F(1), q, 200)
        near = fn(F(-k) + F(1, 10 ** 30), F(1), q, 200)
        # compared at the working precision: the first-order term is ~1e-29
        rel = (near - at) / at
        assert abs(rel.val) < mpmath.mpf("1e-27")
        assert at == fn(F(k), F(1), q, 200) * (-1) ** k
        # the limit at y = 0 is 0; a non-integer negative alpha still diverges
        assert fn(F(-k), F(0), q, 40).is_zero()
        with pytest.raises(DomainError):
            fn(F(-k) + F(1, 2), F(0), q, 40)
        with pytest.raises(DomainError):
            fn(F(-k) + F(1, 2), F(-1), q, 40)

    def test_connection_spot_value(self):
        j1 = qbessel_j1(F(1, 2), F(1), QF, 400)
        j2 = qbessel_j2(F(1, 2), F(1), QF, 400)
        factor = qpochhammer_infinite(fl(F(-1, 4), 50), QF)
        dev = abs((j2 - factor * j1) / j2)
        assert dev.val < mpmath.mpf("1e-40")

    def test_i1_against_direct_summation_oracle(self):
        got = modified_qbessel_i1(F(1), F(1), QF, 200)
        q = mpmath.mpf(1) / 2
        x = mpmath.mpf("0.25")
        total = mpmath.mpf(0)
        for n in range(120):
            den = mpmath.mpf(1)
            for k in range(n):
                den *= 1 - q ** (2 + k)
            for k in range(1, n + 1):
                den *= 1 - q ** k
            total += x ** n / den
        gam = qgamma(F(2), QF).val
        oracle = (mpmath.mpf(1) / 2) / ((1 - q) * gam) * total
        assert abs(got.val - oracle) < mpmath.mpf("1e-40") * abs(oracle)

    def test_i1_roundtrip_reproduces_heine_f(self):
        mu, x = F(3, 2), F(1, 4)
        direct = heine_f_series(mu, QF, 300).eval(fl(x, 50))
        y = fl(x, 50).sqrt() * 2
        i1 = modified_qbessel_i1(mu - 1, y, QF, 300)
        rebuilt = ((1 - QF.q) ** fl(mu - 1, 50)) * qgamma(mu, QF) \
            * (fl(x, 50) ** fl(-(mu - 1) / 2, 50)) * i1
        assert abs((direct - rebuilt) / direct).val < mpmath.mpf("1e-40")


class TestKummer:
    def test_reference_values(self):
        ts = kummer_1f1_unit_top(F(2), 3)
        assert [c.to_fraction() for c in ts.coeffs] == [1, F(1, 2), F(1, 6), F(1, 24)]

    def test_b_one_gives_exponential(self):
        # 1F1(1; 1; x) = e^x: coefficients 1/(1)_n = 1/n!
        from math import factorial
        ts = kummer_1f1_unit_top(F(1), 5)
        assert [c.to_fraction() for c in ts.coeffs] == [F(1, factorial(n))
                                                        for n in range(6)]

    def test_pole(self):
        with pytest.raises(PoleError):
            kummer_1f1_unit_top(F(0), 3)
        with pytest.raises(PoleError):
            kummer_1f1_unit_top(F(-2), 3)

    @pytest.mark.parametrize("b", [F(0), F(-1)])
    def test_float_value_at_a_pole_is_refused(self, b):
        # the same check as the exact series: (b)_n vanishes, so no term divides by 0
        with pytest.raises(PoleError, match=f"1F1 bottom parameter pole at b={b}"):
            kummer_1f1_value(b, fl(F(1, 2), 50), 50)

    def test_float_value_that_has_not_converged_is_refused(self):
        # 1F1(1; 1; 1000) = e^1000 = 1.97e434; 700 terms reach only about 1.4e411
        with pytest.raises(DomainError, match="b=1, x=1000.0 has not converged after 700 terms"):
            kummer_1f1_value(F(1), fl(1000, 50), 50)
        # at x = 100 the terms fall below 10^-58 of the sum well within 700 terms
        assert abs(kummer_1f1_value(F(1), fl(100, 50), 50).val / mpmath.e ** 100 - 1) < 1e-45


# -- float raw kernels: the bits of the scalar operators ---------------------

def _bits(values):
    return [(v.val._mpf_, v.digits) for v in values]


_EXPONENTS = st.sampled_from([F(1, 3), F(1, 2), F(1), F(3, 2), F(5, 2)])


@st.composite
def _float_ratios(draw):
    """A TermRatio over a float base: d = 0 or 1, with upper, lower and
    upper_sq parameters drawn from a few powers of q (so repeats are
    common), and at times one parameter both upper and lower."""
    q = QBase.floating(F(draw(st.integers(1, 99)), 100), draw(st.sampled_from([15, 30, 50, 80])))
    powers = st.lists(_EXPONENTS.map(q.q_power), max_size=3)
    upper, lower, upper_sq = draw(powers), draw(powers), draw(powers)
    if draw(st.booleans()):
        shared = q.q_power(draw(_EXPONENTS))
        upper, lower = upper + [shared], lower + [shared]
    d = draw(st.sampled_from([0, 1]))
    scale = draw(st.sampled_from([q.scalar(-1), 1 - q.q, q.q]))
    c0 = draw(st.sampled_from([q.one, q.q_power(F(1, 3))]))
    return TermRatio(c0, tuple(upper), tuple(lower), q, d, scale, tuple(upper_sq))


@settings(max_examples=150, deadline=None)
@given(_float_ratios(), st.integers(0, 40))
def test_float_recurrence_has_the_bits_of_the_operators(ratio, order):
    """A float base's default recurrence on raw tuples gives the bits and
    digits of the same recurrence on the scalars' operators."""
    got = ratio.series(order)
    want = ratio.series(order, _SCALAR_ARITH)
    assert _bits(got.coeffs) == _bits(want.coeffs)
    assert got.tail_note == want.tail_note
    assert got.ratio is ratio


def test_mixed_digit_recurrence_runs_at_the_largest_digits():
    """A ratio whose values carry 15 to 80 digits runs at 80: the bits of the
    operators on the same values re-tagged to 80 digits."""
    q50 = QBase.floating(F(1, 2), 50)
    c0, u = fl(F(2, 3), 30), fl(F(1, 3), 80)
    v, scale = q50.q_power(F(3, 2)), fl(F(-1, 2), 15)
    ratio = TermRatio(c0, (u,), (v,), q50, 1, scale, (q50.q,))

    def at80(x):
        return _float(x.val._mpf_, 80)

    q80 = QBase.floating(at80(q50.q), 80)
    retagged = TermRatio(at80(c0), (u,), (at80(v),), q80, 1, at80(scale), (at80(q50.q),))
    got = ratio.series(30)
    assert {c.digits for c in got.coeffs} == {80}
    assert _bits(got.coeffs) == _bits(retagged.series(30, _SCALAR_ARITH).coeffs)


def test_float_recurrence_still_refuses_a_colliding_lower_parameter():
    for lower in ((QF.one,), (QF.q, QF.one)):
        with pytest.raises(CollisionError):
            TermRatio(QF.one, (QF.q,), lower, QF).series(5)


def _operator_horner(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


@st.composite
def _float_evaluations(draw):
    """(a float series, a point): d = 0 series with |x| < 1 at 15, 50 or 100
    digits against 50-digit coefficients, d = 1 series at any sign and at
    int and Fraction points, and series whose coefficients mix digits."""
    q = QBase.floating(F(draw(st.integers(1, 99)), 100), 50)
    order = draw(st.integers(0, 60))
    kind = draw(st.sampled_from(["d0", "d1", "mixed"]))
    if kind == "d0":
        series = heine_f_series(draw(_EXPONENTS), q, order)
        x = fl(F(draw(st.integers(-99, 99)), 100), draw(st.sampled_from([15, 50, 100])))
        return series, x
    series = g_series((2, 3), (1, 2), draw(_EXPONENTS), q, order)
    if kind == "mixed":
        digits = draw(st.lists(st.sampled_from([15, 50, 80]), min_size=order + 1,
                               max_size=order + 1))
        series = TruncatedSeries(tuple(_float(c.val._mpf_, d)
                                       for c, d in zip(series.coeffs, digits)), order)
    x = draw(st.sampled_from([fl(F(-7, 3), 30), fl(F(5, 2), 100), 2, -3, F(5, 3)]))
    return series, x


@settings(max_examples=200, deadline=None)
@given(_float_evaluations())
def test_float_eval_has_the_bits_of_the_operator_loop(case):
    series, x = case
    assert _bits([series.eval(x)]) == _bits([_operator_horner(series.coeffs, x)])


def test_eval_domain_and_exact_results_are_unchanged():
    heine = heine_f_series(F(1, 2), QF, 20)
    for x in (fl(1), fl(F(-3, 2)), fl(F(101, 100), 80)):
        with pytest.raises(DomainError, match="[|]x[|] < 1"):
            heine.eval(x)
    exact = heine_f_series(F(1), Q12, 12)
    x = F(-2, 3)
    want = sum(c.to_fraction() * x ** n for n, c in enumerate(exact.coeffs))
    assert exact.eval(ex(x)).to_fraction() == want
