"""Series constructors and arithmetic."""

import random
from collections import Counter
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qturan.qcore import QBase, qgamma, qgamma_ratio, qpochhammer_finite, qpochhammer_infinite
from qturan.series import (
    _SCALAR_ARITH,
    _Chain,
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
    ExactScalar,
    FloatScalar,
    HypothesisError,
    ModeMismatchError,
    PoleError,
    _float,
    _prec,
    ex,
    fl,
)
from qturan.turanian import Family, TuranianSpec, _Interval, _shift_series_of

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
    """A TermRatio over a float base, q from 1/100 to 99/100: d = 0 or 1,
    with upper, lower and upper_sq parameters drawn from a few powers of q
    (so repeats are common), their negatives, powers of 1/q and -2^40 (so
    some stay above 2^-prec long after q^n), and at times one parameter both
    upper and lower."""
    q = QBase.floating(F(draw(st.integers(1, 99)), 100), draw(st.sampled_from([15, 30, 50, 80])))
    parameter = st.one_of(
        _EXPONENTS.map(q.q_power),
        _EXPONENTS.map(lambda e: -q.q_power(e)),
        st.sampled_from([F(-1, 2), F(-5, 2)]).map(q.q_power),
        st.just(q.scalar(-2 ** 40)))
    powers = st.lists(parameter, max_size=3)
    upper, lower, upper_sq = draw(powers), draw(powers), draw(powers)
    if draw(st.booleans()):
        shared = q.q_power(draw(_EXPONENTS))
        upper, lower = upper + [shared], lower + [shared]
    d = draw(st.sampled_from([0, 1]))
    scale = draw(st.sampled_from([q.scalar(-1), 1 - q.q, q.q]))
    c0 = draw(st.sampled_from([q.one, q.q_power(F(1, 3))]))
    return TermRatio(c0, tuple(upper), tuple(lower), q, d, scale, tuple(upper_sq))


@settings(max_examples=150, deadline=None)
@given(_float_ratios(), st.integers(0, 1500))
def test_float_recurrence_has_the_bits_of_the_operators(ratio, order):
    """A float base's default recurrence on raw tuples, which stops where
    the working precision stops changing a d = 0 series, gives the bits and
    digits of the full loop, on the raw tuples and on the scalars'
    operators alike."""
    got = ratio.series(order)
    want = ratio.series(order, _SCALAR_ARITH)
    assert _bits(got.coeffs) == _bits(want.coeffs)
    assert _bits(got.coeffs) == _bits(_reference_series(ratio, order))
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
    """(a float series, a point) to order 1500, q from 1/100 to 99/100:
    d = 0 series with |x| < 1 at 15, 50 or 100 digits against 50-digit
    coefficients, whose repeated tails take Horner to its fixed points;
    d = 1 series at any sign and at int and Fraction points; and either
    kind with coefficients whose digits change in blocks."""
    q = QBase.floating(F(draw(st.integers(1, 99)), 100), 50)
    order = draw(st.integers(0, 1500))
    kind = draw(st.sampled_from(["d0", "d1", "mixed"]))
    if kind == "d0" or kind == "mixed" and draw(st.booleans()):
        series = heine_f_series(draw(_EXPONENTS), q, order)
        x = fl(F(draw(st.integers(-99, 99)), 100), draw(st.sampled_from([15, 50, 100])))
    else:
        series = g_series((2, 3), (1, 2), draw(_EXPONENTS), q, order)
        x = draw(st.sampled_from([fl(F(-7, 3), 30), fl(F(5, 2), 100), 2, -3, F(5, 3)]))
    if kind == "mixed":
        cuts = sorted(draw(st.lists(st.integers(0, order), max_size=4))) + [order + 1]
        digits = draw(st.lists(st.sampled_from([15, 50, 80]), min_size=len(cuts),
                               max_size=len(cuts)))
        block = [next(d for cut, d in zip(cuts, digits) if n < cut) for n in range(order + 1)]
        series = TruncatedSeries(tuple(_float(c.val._mpf_, d)
                                       for c, d in zip(series.coeffs, block)), order)
    return series, x


@settings(max_examples=200, deadline=None)
@given(_float_evaluations())
def test_float_eval_has_the_bits_of_the_operator_loop(case):
    series, x = case
    assert _bits([series.eval(x)]) == _bits([_operator_horner(series.coeffs, x)])


def test_a_d1_ratio_never_fills_early():
    """(s q^n)^d keeps shrinking a d = 1 series' coefficients after every
    factor 1 - x has rounded to 1: all 601 differ."""
    q = QBase.floating(F(1, 2), 50)
    ratio = TermRatio(q.one, (q.q_power(F(1, 2)),), (q.q,), q, 1, 1 - q.q)
    series = ratio.series(600)
    assert _bits(series.coeffs) == _bits(_reference_series(ratio, 600))
    assert len({c.val._mpf_ for c in series.coeffs}) == 601


@pytest.mark.parametrize("sign", [1, -1])
def test_a_parameter_above_one_saturates_after_one_minus_q_to_the_n(sign):
    """At q = 1/2 and 50 digits (prec bits), 1 - q^n rounds to 1 from
    n = prec + 1, where the chain stops forming it; 1 -/+ 2^40.5 q^n stays
    off 1 some 40 steps longer, and the chain's q^n goes on for this ratio."""
    q = QBase.floating(F(1, 2), 50)
    prec = _prec(50)
    u = sign * q.q_power(F(-81, 2))
    ratio = TermRatio(q.one, (u,), (q.q_power(F(1, 2)),), q)
    chain = _Chain(FloatScalar.arith(50), q, 400, prec)
    assert chain.ones_from == prec + 1 and len(chain.powers) == prec + 3
    head = ratio._recurrence(FloatScalar.arith(50), chain, 400)
    assert len(head) == prec + 44 and len(chain.powers) == prec + 43
    series = ratio.series(400)
    assert _bits(series.coeffs) == _bits(_reference_series(ratio, 400))
    tuples = [c.val._mpf_ for c in series.coeffs]
    changes = [n for n in range(1, 401) if tuples[n] != tuples[n - 1]]
    assert prec + 38 <= changes[-1] <= prec + 42


def _saturating_order(qv):
    """An order well past the step where q^n falls below 2^-(prec+1) at 50
    digits."""
    return int(400 / -mpmath.log(qv, 2)) + 50


@pytest.mark.parametrize("qv", [F(2, 3), F(3, 4), F(9, 10)])
@pytest.mark.parametrize("u", [F(-1), F(-1, 2), F(3)])
def test_a_negative_or_large_parameter_keeps_the_bits_past_the_gaps(u, qv):
    """A series with a negative parameter, or one above 1, as upper, lower
    or upper_sq parameter saturates with the bits of the full loop, also at
    the steps where 1 - u q^n is 1 and 1 - q^(n+1) is not."""
    q = QBase.floating(qv, 50)
    order = _saturating_order(qv)
    for ratio in (TermRatio(q.one, (q.scalar(u),), (q.q_power(F(1, 2)),), q),
                  TermRatio(q.one, (), (q.scalar(u), q.q_power(F(3, 2))), q),
                  TermRatio(q.one, (q.q,), (), q, 0, None, (q.scalar(u),))):
        series = ratio.series(order)
        assert _bits(series.coeffs) == _bits(_reference_series(ratio, order))


@pytest.mark.parametrize("qv", [F(2, 3), F(3, 4), F(9, 10)])
def test_a_rounded_one_plus_t_does_not_stop_a_smaller_one_minus_t(qv):
    """1 + t rounds to 1 for t up to 2^-prec, 1 - t only below 2^-(prec+1):
    with upper parameters -2 and 19/10, 1 + 2 q^n is 1 at steps where
    1 - (19/10) q^n is not, and the series keeps the bits of the full loop."""
    q = QBase.floating(qv, 50)
    order = _saturating_order(qv)
    ratio = TermRatio(q.one, (q.scalar(-2), q.scalar(F(19, 10))), (), q)
    assert _bits(ratio.series(order).coeffs) == _bits(_reference_series(ratio, order))


def test_horner_forms_its_fixed_point_anew_at_more_digits():
    """400 copies of c at 50 digits take Horner to a fixed point; the same
    tuple at 100 digits then raises the precision, and the steps after it
    run at 100 digits until they reach a fixed point there."""
    c = fl(F(2, 3), 50)
    more = _float(c.val._mpf_, 100)
    for coeffs in ([more] * 20 + [c] * 400, [more] * 400 + [c] * 400):
        for x in (fl(F(1, 3), 50), F(1, 3), fl(F(-7, 10), 15)):
            got = FloatScalar.horner(coeffs, x)
            assert got.digits == 100
            assert _bits([got]) == _bits([_operator_horner(coeffs, x)])


def test_eval_domain_and_exact_results_are_unchanged():
    heine = heine_f_series(F(1, 2), QF, 20)
    for x in (fl(1), fl(F(-3, 2)), fl(F(101, 100), 80)):
        with pytest.raises(DomainError, match="[|]x[|] < 1"):
            heine.eval(x)
    exact = heine_f_series(F(1), Q12, 12)
    x = F(-2, 3)
    want = sum(c.to_fraction() * x ** n for n, c in enumerate(exact.coeffs))
    assert exact.eval(ex(x)).to_fraction() == want


# -- many ratios over one chain of q-powers ------------------------------------

def _reference_series(ratio, order, arith=None):
    """c_0..c_order of one ratio by the loop that ``TermRatio.series_of``
    replaces, kept as the reference: its own q-powers and 1 - q^n, and a
    fresh list of factors at every step.  ``arith=None`` on a float base runs
    ``FloatScalar.arith`` at the ratio's largest digits and wraps the tuples."""
    q = ratio.base
    digits = None
    if arith is None:
        if q.is_exact:
            arith = _SCALAR_ARITH
        else:
            used = (ratio.c0, q.q, *ratio.upper, *ratio.lower, *ratio.upper_sq,
                    *((ratio.scale,) if ratio.d else ()))
            digits = max([q.digits] + [x.digits for x in used if type(x) is FloatScalar])
            arith = FloatScalar.arith(digits)
    lift, mul, div, one_minus = arith
    one, qq = lift(q.one), lift(q.q)
    scale = lift(ratio.scale) if ratio.d else None
    up, low = Counter(ratio.upper), Counter(ratio.lower)
    shared = up & low
    up, low = up - shared, low - shared
    upper = [(lift(u), k) for u, k in up.items()]
    upper_sq = [(lift(w), k) for w, k in Counter(ratio.upper_sq).items()]
    lower = [(lift(v), k) for v, k in low.items()]
    c = lift(ratio.c0)
    coeffs = [c]
    qn1 = one
    for _ in range(order):
        qn = mul(qn1, qq)
        factors = [(mul(scale, qn1), ratio.d)] if ratio.d else []
        factors += [(one_minus(mul(u, qn1)), k) for u, k in upper]
        if upper_sq:
            q2n2 = mul(qn1, qn1)
            factors += [(one_minus(mul(w, q2n2)), k) for w, k in upper_sq]
        num = None
        for factor, k in factors:
            for _ in range(k):
                num = factor if num is None else mul(num, factor)
        den = one_minus(qn)
        for v, k in lower:
            factor = one_minus(mul(v, qn1))
            for _ in range(k):
                den = mul(den, factor)
        c = div(c, den) if num is None else mul(c, div(num, den))
        coeffs.append(c)
        qn1 = qn
    if digits is not None:
        coeffs = [_float(c, digits) for c in coeffs]
    return coeffs


def _value_bits(c):
    """Everything that tells two coefficients apart: an exact value's
    integers and radicand, a float's mpf tuple and digits, an enclosure's
    triple."""
    if isinstance(c, ExactScalar):
        return c.n, c.m, c.d, c.rad
    if isinstance(c, FloatScalar):
        return c.val._mpf_, c.digits
    return c


@st.composite
def _ratio_sets(draw):
    """(ratios on one base, order, arith): exact bases (dyadic or not) with
    the scalars' own operators or the interval arithmetic, float bases with
    the default;
    one to four ratios with d = 0 or 1, upper, lower and upper_sq
    parameters from a few powers of q (repeats and parameters both upper
    and lower are common), c0 at other digits than the base on a float
    base, and at times the same ratio twice."""
    mode = draw(st.sampled_from(["exact", "float", "interval"]))
    if mode == "float":
        q = QBase.floating(F(draw(st.integers(1, 99)), 100),
                           draw(st.sampled_from([15, 30, 50])))
        arith, order = None, draw(st.integers(0, 40))
    else:
        q = QBase.exact(q=draw(st.sampled_from([F(1, 4), F(1, 2), F(3, 4), F(2, 3), F(99, 100)])))
        arith = _SCALAR_ARITH if mode == "exact" else _Interval.ARITH
        order = draw(st.integers(0, 16 if mode == "exact" else 60))
    exponents = _EXPONENTS.filter(lambda e: mode == "float" or (2 * e).denominator == 1)
    powers = st.lists(exponents.map(q.q_power), max_size=3)

    def ratio():
        upper, lower, upper_sq = draw(powers), draw(powers), draw(powers)
        if draw(st.booleans()):
            shared = q.q_power(draw(exponents))
            upper, lower = upper + [shared], lower + [shared]
        d = draw(st.sampled_from([0, 1]))
        scale = draw(st.sampled_from([q.scalar(-1), 1 - q.q, q.q]))
        c0 = q.one
        if mode == "float":
            c0 = fl(F(draw(st.integers(1, 9)), 7), draw(st.sampled_from([15, 30, 50, 80])))
        return TermRatio(c0, tuple(upper), tuple(lower), q, d, scale, tuple(upper_sq))

    ratios = [ratio() for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        ratios.append(ratios[0])
    return ratios, order, arith


@settings(max_examples=150, deadline=None)
@given(_ratio_sets())
def test_series_of_gives_each_ratio_the_bits_it_has_alone(case):
    ratios, order, arith = case
    built = TermRatio.series_of(ratios, order, arith)
    assert len(built) == len(ratios)
    for ratio, series in zip(ratios, built):
        got = [_value_bits(c) for c in series.coeffs]
        assert got == [_value_bits(c) for c in ratio.series(order, arith).coeffs]
        assert got == [_value_bits(c) for c in _reference_series(ratio, order, arith)]
        assert series.order == order and series.ratio is ratio
        assert (series.tail_note is None) == (ratio.d != 0)


@pytest.mark.parametrize("qv", [F(1, 4), F(3, 4), F(2, 3)])
@pytest.mark.parametrize("family,a,b", [
    (Family.HEINE_F, (), ()),
    (Family.HEINE_F_TILDE, (), ()),
    (Family.G_NORMALIZED, (F(1), F(1), F(1)), (F(2), F(2))),
    (Family.G_NORMALIZED, (F(2), F(3)), (F(1), F(2))),
], ids=["heine", "tilde", "g-d0", "g-d1"])
def test_certificate_heads_share_one_chain_with_their_own_bits(family, a, b, qv):
    spec = TuranianSpec(family, F(1, 2), F(1), F(2), QBase.exact(q=qv), 60, a=a, b=b)
    heads = _shift_series_of(family, spec.mu, (spec.alpha, spec.beta, 0, spec.alpha + spec.beta),
                             spec.q, 0, a, b)
    ratios = [h.ratio for h in heads]
    built = TermRatio.series_of(ratios, 60, _Interval.ARITH)
    for ratio, series in zip(ratios, built):
        assert list(series.coeffs) == _reference_series(ratio, 60, _Interval.ARITH)


def test_series_of_refuses_ratios_over_two_bases():
    q34 = QBase.exact(q=F(3, 4))
    for other in (q34, QF):
        with pytest.raises(ValueError, match="one base"):
            TermRatio.series_of([heine_f_series(F(1), Q12, 0).ratio,
                                 TermRatio(other.one, (), (other.q,), other)], 5)


def test_series_of_refuses_a_colliding_lower_parameter_before_building():
    lifted = []

    def lift(x):
        lifted.append(x)
        return x

    fine = TermRatio(Q12.one, (), (Q12.q,), Q12)
    colliding = TermRatio(Q12.one, (Q12.q,), (Q12.q, ex(4)), Q12)     # 1 - 4 q^2 = 0
    with pytest.raises(CollisionError):
        TermRatio.series_of([fine, colliding], 5, (lift, *_SCALAR_ARITH[1:]))
    assert lifted == []


# -- the weighted-sum kernel and literal-zero upper parameters -----------------

@st.composite
def _exact_terms(draw):
    """Terms (w, A, B), (w, S, None) and signs over exact coefficients in Q
    or Q(sqrt 3), orders 0..8 (mixed, so truncation shows), weights None or
    exact, and the operator-form sum they should equal."""
    rad = draw(st.sampled_from([None, F(3)]))
    small = st.fractions(min_value=-9, max_value=9, max_denominator=12)

    def scalar():
        a = draw(small)
        return ex(a) if rad is None else ExactScalar(a, draw(small), rad)

    def series():
        order = draw(st.integers(0, 8))
        return TruncatedSeries(tuple(scalar() for _ in range(order + 1)), order,
                               draw(st.sampled_from([None, "converges for |x| < 1 only"])))

    terms, signs = [], []
    for _ in range(draw(st.integers(1, 5))):
        w = None if draw(st.booleans()) else scalar()
        terms.append((w, series(), series() if draw(st.booleans()) else None))
        signs.append(draw(st.sampled_from([1, -1])))
    return terms, signs


@settings(max_examples=200, deadline=None)
@given(_exact_terms())
def test_exact_weighted_sum_equals_the_operator_form(case):
    """One ``dot`` per coefficient, weights folded into a factor, gives the
    value (and so the integers) of the products, scalings and sums formed
    one reduced operation at a time."""
    terms, signs = case
    want = None
    kernel_terms = []
    for (w, a, b), sign in zip(terms, signs):
        part = a if b is None else a * b
        if w is not None:
            part = part.scaled(w)
        if want is None:
            want = part if sign > 0 else part.scaled(ex(-1))
        else:
            want = want + part if sign > 0 else want - part
        weight = w if sign > 0 else (ex(-1) if w is None else -w)
        kernel_terms.append((weight, a, b))
    got = TruncatedSeries.weighted_sum(kernel_terms)
    assert [_value_bits(c) for c in got.coeffs] == [_value_bits(c) for c in want.coeffs]
    assert (got.order, got.tail_note) == (want.order, terms[0][1].tail_note)


def test_float_weighted_sum_rounds_each_coefficient_once():
    """Float products go through ``convolve``, and the weighted sum of the
    products and series is one correctly rounded ``dot`` per coefficient."""
    q = QBase.floating(F(3, 4), 50)
    a, b = heine_f_series(F(1, 2), q, 12), heine_f_series(F(5, 2), q, 10)
    s = heine_f_series(F(3, 2), q, 11)
    w, v = fl(F(7, 3), 50), fl(F(-2, 9), 50)
    got = TruncatedSeries.weighted_sum([(w, a, b), (v, s, None), (None, b, a)])
    ab, ba = a * b, b * a
    assert got.order == 10
    for n in range(11):
        want = FloatScalar.dot([w, v, 1], [ab.coeffs[n], s.coeffs[n], ba.coeffs[n]])
        assert (got.coeffs[n].val._mpf_, got.coeffs[n].digits) == (want.val._mpf_, 50)


def test_cauchy_product_keeps_its_coefficients_and_float_bits():
    """``*``, the one-term weighted sum: exact coefficients are the sums of
    the products, float coefficients keep the bits they had as a separate
    product path (pinned), and enclosures are those of ``convolve``."""
    rng = random.Random(7)
    a = TruncatedSeries(tuple(ExactScalar(F(rng.randint(-9, 9), rng.randint(1, 9)),
                                          F(rng.randint(-9, 9), 5), F(3)) for _ in range(9)), 8)
    b = TruncatedSeries(tuple(ex(F(rng.randint(-9, 9), rng.randint(1, 9)))
                              for _ in range(7)), 6, "converges for |x| < 1 only")
    product = a * b
    assert product.order == 6 and product.tail_note is None
    for n in range(7):
        want = a.coeffs[0] * b.coeffs[n]
        for k in range(1, n + 1):
            want = want + a.coeffs[k] * b.coeffs[n - k]
        assert _value_bits(product.coeffs[n]) == _value_bits(want)

    q = QBase.floating(F(3, 4), 50)
    p = heine_f_series(F(1, 2), q, 12) * tphis_series(
        PhiSpec((q.q, q.zero), (q.q_power(F(5, 2)),), q), 12)
    assert p.tail_note == "converges for |x| < 1 only"
    assert p.coeffs[5].val._mpf_ == (
        0, 396994208216091688156846212224115149947467006411501, -155, 169)
    assert p.coeffs[12].val._mpf_ == (
        0, 173562318719142369071581297873982832169028965050715, -149, 167)
    g = g_series((2, 3), (1, 2), F(1), q, 40) * g_series((2, 3), (1, 2), F(2), q, 40)
    assert g.coeffs[7].val._mpf_ == (
        0, 145374221850392447269225673654252446149668787577389, -172, 167)
    assert g.coeffs[40].val._mpf_ == (
        0, 28980561894242772028630824240729216340958317140439, -385, 165)

    qe = QBase.exact(q=F(3, 4))
    hs = [heine_f_series(mu, qe, 30).ratio.series(30, _Interval.ARITH) for mu in (F(1, 2), F(3))]
    x, y = (TruncatedSeries(tuple(map(_Interval, h.coeffs)), 30) for h in hs)
    assert list((x * y).coeffs) == _Interval.convolve(x.coeffs, y.coeffs)


@pytest.mark.parametrize("mode", ["exact", "float", "interval"])
@pytest.mark.parametrize("d,uppers", [(0, 1), (1, 1), (0, 0), (1, 0), (0, 2)])
def test_literal_zero_upper_parameters_are_dropped(mode, d, uppers):
    """A ratio with literal-zero upper parameters gives the coefficients of
    the ratio without them, with the same bits in float and enclosure
    arithmetic: each such factor 1 - 0 q^n is exactly 1."""
    q = QBase.floating(F(3, 4), 50) if mode == "float" else QBase.exact(q=F(3, 4))
    arith = _Interval.ARITH if mode == "interval" else None
    plain = (q.q,) * uppers
    lower = (q.q_power(F(5, 2)),)
    for zeros in ((q.zero,), (q.zero, q.zero)):
        with_zeros = TermRatio(q.one, zeros + plain, lower, q, d, q.scalar(-1))
        without = TermRatio(q.one, plain, lower, q, d, q.scalar(-1))
        got, want = with_zeros.series(30, arith), without.series(30, arith)
        assert [_value_bits(c) for c in got.coeffs] == [_value_bits(c) for c in want.coeffs]
