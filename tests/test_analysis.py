"""Complete monotonicity, multiplicative convexity, Laplace representation."""

import random
from fractions import Fraction as F
from math import factorial

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qturan import analysis
from qturan.analysis import (
    MeasureDensity,
    _density_mpf,
    complete_monotonicity_check,
    laplace_representation_check,
    measure_from_series,
    multiplicative_convexity_check,
    tau_density,
)
from qturan.identities import _compare
from qturan.qcore import QBase
from qturan.scalar import (
    DimensionError,
    DomainError,
    ExactModeError,
    ExactScalar,
    FloatScalar,
    fl,
)
from qturan.series import TruncatedSeries
from qturan.turanian import Family, TuranianSpec, turanian_series

mpmath.mp.dps = 60

DIGITS = 50
Q12 = QBase.exact(q=F(1, 2))


def uniform_grid(start, stop, step):
    out = []
    cur = F(start)
    while cur <= F(stop):
        out.append(fl(cur, DIGITS))
        cur += F(step)
    return out


def nonneg_family_turanian(order=40, mu=F(1), beta=F(2)):
    spec = TuranianSpec(Family.G_NORMALIZED, mu, F(1), beta, Q12, order,
                        (F(2), F(3)), (F(1), F(2)))
    return turanian_series(spec).to_float(DIGITS)


def _doubling_panels(x, T):
    """0, x, 3x, 7x, ... up to T: tanh-sinh panels that double in width."""
    points = [mpmath.mpf(0)]
    seg = x
    while points[-1] < T:
        points.append(min(points[-1] + seg, T))
        seg = seg * 2
    return points


def _series_sides(md, xs, work):
    """c_0 + sum_m c_m x^m at each x, summed in order at the working precision."""
    sides = []
    for x in xs:
        series_side, xp = md.atom_at_zero.to_mpf(work), mpmath.mpf(1)
        for c in md.density_coeffs:
            xp = xp * x
            series_side += c.to_mpf(work) * xp
        sides.append(series_side)
    return sides


def _tail_meets_tol(md, xs, sides, tol, T, work):
    """The default window's test: the tail bound past T is at most tol
    times |series side| at every x."""
    coeffs = [c.to_mpf(work) for c in md.density_coeffs]
    return all(analysis._truncation_tail(coeffs, x, mpmath.mpf(T)) <= tol * abs(side)
               for x, side in zip(xs, sides))


def _reference_laplace(md, x_grid, *, digits=DIGITS, upper_limit=None, tol=None):
    """The Laplace check on mpmath's default tanh-sinh rule, on panels that
    double in width, with the integrand e^(-t/x) rho(t).  With no
    upper_limit, T is the first 40 2^k whose tail bound is at most tol
    times |series side| at every x: the check's own window rule, so that
    the reference tests the quadrature, not the window."""
    work = digits + 15
    rho = _density_mpf(md, work)
    atom = md.atom_at_zero.to_mpf(work)
    with mpmath.workdps(work):
        if tol is None:
            tol = mpmath.mpf(10) ** (10 - digits)
        xs = [mpmath.mpf(x.numerator) / x.denominator for x in x_grid]
        sides = _series_sides(md, xs, work)
        T = mpmath.mpf(upper_limit if upper_limit is not None else next(
            40 << k for k in range(30) if _tail_meets_tol(md, xs, sides, tol, 40 << k, work)))
        pairs = []
        for x, series_side in zip(xs, sides):
            integral = atom + mpmath.quad(lambda t: mpmath.e ** (-t / x) * rho(t),
                                          _doubling_panels(x, T))
            pairs.append((FloatScalar(integral, work), FloatScalar(series_side, work)))
    return _compare(pairs, "float", md.order, "laplace-representation")


NONNEG_DENSITY = measure_from_series(nonneg_family_turanian())
ORDER_12_DENSITY = measure_from_series(nonneg_family_turanian(order=12))
SINGLE_TERM = MeasureDensity(fl(0, DIGITS), (fl(1, DIGITS),), 1)
# 219 bits: a 169-bit head, then 0 followed by 49 ones
V_JUST_UNDER_HALF = (((1 << 168) + 12345) << 50) + (1 << 49) - 1


class TestCompleteMonotonicity:
    def test_constant_passes_nonstrictly(self):
        grid = uniform_grid(1, 3, F(1, 10))
        ok, margins = complete_monotonicity_check(lambda y: fl(1, DIGITS), grid, 4)
        assert ok
        assert all(m.val == 0 for m in margins[1:])

    def test_exponential_reference(self):
        grid = uniform_grid(1, 3, F(1, 10))
        ok, margins = complete_monotonicity_check(lambda y: (-y).exp(), grid, 6)
        assert ok and all(m.val > 0 for m in margins)

    def test_nonneg_family_reciprocal_argument(self):
        ts = nonneg_family_turanian()
        grid = uniform_grid(1, 5, F(1, 20))
        ok, _ = complete_monotonicity_check(lambda y: ts.eval(1 / y), grid, 6)
        assert ok

    def test_structural_property_random_inverse_power_series(self):
        # sum c_m y^(-m) with c_m >= 0 is completely monotone in y
        rng = random.Random(13)
        grid = uniform_grid(1, 3, F(1, 10))
        for _ in range(10):
            coeffs = [fl(F(rng.randint(0, 9), 4), DIGITS) for _ in range(6)]
            def f(y, cs=coeffs):
                acc = fl(0, DIGITS)
                inv = 1 / y
                p = fl(1, DIGITS)
                for c in cs:
                    acc = acc + c * p
                    p = p * inv
                return acc
            ok, _ = complete_monotonicity_check(f, grid, 5)
            assert ok

    def test_insufficient_grid(self):
        with pytest.raises(DimensionError):
            complete_monotonicity_check(lambda y: y, uniform_grid(1, 2, 1), 4)

    @pytest.mark.parametrize("max_order", [-1, -3])
    def test_a_negative_order_is_refused_before_any_evaluation(self, max_order):
        # order -1 once passed on the order-0 margin alone, a check of no differences
        def never(y):
            raise AssertionError("evaluated")
        with pytest.raises(DimensionError, match="max_order must be nonnegative"):
            complete_monotonicity_check(never, uniform_grid(1, 2, F(1, 10)), max_order)

    def test_exact_grid_stays_exact(self):
        # 1/y on y = 1, 21/20, ..., 29/20: the margins are exact rationals
        grid = [ExactScalar.from_rational(F(20 + k, 20)) for k in range(10)]
        ok, margins = complete_monotonicity_check(lambda y: 1 / y, grid, 4)
        assert ok and all(isinstance(m, ExactScalar) and m.sign() > 0 for m in margins)
        assert margins[0] == F(20, 29) and margins[1] == F(20, 28) - F(20, 29)
        uneven = [*grid[:-1], grid[-1] + F(1, 10**19)]
        with pytest.raises(DimensionError):
            complete_monotonicity_check(lambda y: 1 / y, uneven, 4)

    def test_exact_grid_spacings_compare_exactly(self):
        # a spacing 1e-25 relative off the first passed the float tolerance
        ex = ExactScalar.from_rational
        uneven = [ex(1), ex(2), ex(3 + F(1, 10**25))]
        with pytest.raises(DimensionError, match="uniform"):
            complete_monotonicity_check(lambda y: 1 / y, uneven, 2)
        ok, _ = complete_monotonicity_check(lambda y: 1 / y, [ex(1), ex(2), ex(3)], 2)
        assert ok

    def test_float_grid_keeps_its_tolerance(self):
        grid = [fl(1, DIGITS), fl(2, DIGITS), fl(3, DIGITS) + fl(F(1, 10**25), DIGITS)]
        ok, _ = complete_monotonicity_check(lambda y: 1 / y, grid, 2)
        assert ok


class TestMultiplicativeConvexity:
    def test_equal_points_equality(self):
        x = fl(F(7, 10), DIGITS)
        ok, margins = multiplicative_convexity_check(lambda v: v.exp(), [(x, x)])
        assert ok and abs(margins[0].val) < mpmath.mpf("1e-45")

    def test_exponential_reference(self):
        pairs = [(fl(1, DIGITS), fl(4, DIGITS)),
                 (fl(F(1, 2), DIGITS), fl(2, DIGITS))]
        ok, margins = multiplicative_convexity_check(lambda v: v.exp(), pairs)
        assert ok and all(m.val > 0 for m in margins)

    def test_nonneg_family(self):
        ts = nonneg_family_turanian()
        pairs = [(fl(F(2, 10), DIGITS), fl(F(8, 10), DIGITS)),
                 (fl(F(1, 10), DIGITS), fl(F(4, 10), DIGITS))]
        ok, _ = multiplicative_convexity_check(lambda x: ts.eval(x), pairs)
        assert ok

    def test_structural_property_random_nonneg_series(self):
        rng = random.Random(17)
        for _ in range(10):
            coeffs = tuple(fl(F(rng.randint(0, 9), 3), DIGITS) for _ in range(7))
            ts = TruncatedSeries(coeffs, 6)
            pairs = [(fl(F(rng.randint(1, 30), 10), DIGITS),
                      fl(F(rng.randint(1, 30), 10), DIGITS)) for _ in range(5)]
            ok, _ = multiplicative_convexity_check(lambda x: ts.eval(x), pairs)
            assert ok

    def test_no_pairs_is_refused(self):
        with pytest.raises(DimensionError, match="at least one pair"):
            multiplicative_convexity_check(lambda v: v.exp(), [])

    @pytest.mark.parametrize("pairs", [
        [(ExactScalar(F(1, 4)), ExactScalar(F(1, 9)))],
        [(fl(F(1, 4), DIGITS), ExactScalar(F(1, 9)))],
        [(fl(F(1, 4), DIGITS), fl(1, DIGITS)), (F(1, 4), F(1, 4))],
    ], ids=["exact", "mixed", "fraction-second-pair"])
    def test_points_that_are_not_float_are_refused_before_any_evaluation(self, pairs):
        # sqrt(x1 x2) is not exact in general, so exact points are a mode
        # error, raised before the evaluator runs on any pair
        def never(_):
            raise AssertionError("the evaluator was called")
        with pytest.raises(ExactModeError, match="FloatScalar points"):
            multiplicative_convexity_check(never, pairs)


class TestLaplaceRepresentation:
    def test_zero_density(self):
        md = MeasureDensity(fl(0, DIGITS), (fl(0, DIGITS),) * 3, 3)
        res = laplace_representation_check(md, [F(1, 2)], digits=DIGITS)
        assert res.max_abs.val < mpmath.mpf("1e-45")

    @pytest.mark.parametrize("upper_limit", [None, 80])
    def test_negative_density_coefficient_is_refused(self, upper_limit):
        # x - 2x^2 vanishes at x = 1/2: no window bounds a tail
        # relative to it, and a fixed window compared it with +inf
        md = MeasureDensity(fl(0, DIGITS), (fl(1, DIGITS), fl(-2, DIGITS)), 2)
        with pytest.raises(DomainError, match="c_2 is negative"):
            laplace_representation_check(md, [F(1, 2)], digits=DIGITS,
                                         upper_limit=upper_limit)

    def test_no_evaluation_point_is_refused(self):
        md = MeasureDensity(fl(0, DIGITS), (fl(1, DIGITS),), 1)
        with pytest.raises(DimensionError, match="at least one evaluation point"):
            laplace_representation_check(md, [], digits=DIGITS)

    def test_transform_weight_oracle(self):
        # integral_0^infty e^(-t/x) t^(m-1)/(m-1)! dt = x^m fixes the weight
        with mpmath.workdps(DIGITS):
            x = mpmath.mpf(1) / 2
            for m in (1, 2, 3, 6):
                val = mpmath.quad(
                    lambda t: mpmath.e ** (-t / x) * t ** (m - 1)
                    / mpmath.factorial(m - 1), [0, 60])
                assert abs(val - x ** m) < mpmath.mpf("1e-40")

    def test_single_term_density(self):
        # density gamma_1 = 1 integrates to x, matching the series term
        md = MeasureDensity(fl(0, DIGITS), (fl(1, DIGITS),), 1)
        assert tau_density(md, fl(3, DIGITS)).val == 1
        res = laplace_representation_check(md, [F(1, 2), F(2)], digits=DIGITS)
        assert res.max_rel.val < mpmath.mpf("1e-40")

    def test_density_of_order_3_against_the_direct_sum(self):
        # 1 + 2x + 3x^2 + 5x^3 has density 2 + 3t + 5t^2/2!, 33/8 at t = 1/2
        coeffs = (1, 2, 3, 5)
        md = measure_from_series(TruncatedSeries(tuple(map(ExactScalar, coeffs)), 3))
        t = F(1, 2)
        direct = sum(F(c) * t ** (m - 1) / factorial(m - 1)
                     for m, c in enumerate(coeffs[1:], start=1))
        assert direct == F(33, 8)
        assert tau_density(md, ExactScalar(t)).to_fraction() == direct

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                           max_denominator=10 ** 12),
                              st.sampled_from([0, 0, 0, -200, 150, -1500])),
                    min_size=1, max_size=45),
           st.sampled_from([15, 30, 50, 65]), st.sampled_from([10, 15, 30, 50, 71, 120]),
           st.fractions(min_value=-80, max_value=80, max_denominator=10 ** 9),
           st.sampled_from([0, 0, -30, -700, 3]))
    # the accumulator cancels to exactly 0 partway through (scaled coefficients 7, 1, -1)
    @example(terms=[(F(7), 0), (F(1), 0), (F(-2), 0)], digits=50, dps=50, t_frac=F(1), t_shift=0)
    # rounding 2^100 - 1 to 53 bits carries into a new mantissa bit
    @example(terms=[(F(2 ** 100 - 1), 0), (F(1), 0)], digits=50, dps=15, t_frac=F(1, 3),
             t_shift=0)
    # ties go to the even neighbour, for either sign: 2^53 + 1 to 2^53, and
    # -(2^53 + 3) to -(2^53 + 4), then -(2^53 + 3) again to -(2^53 + 4)
    @example(terms=[(F(2 ** 53 + 1), 0)], digits=30, dps=15, t_frac=F(0), t_shift=0)
    @example(terms=[(F(1), 0), (F(-(2 ** 53 + 3)), 0)], digits=30, dps=15, t_frac=F(1),
             t_shift=0)
    # zero top and middle coefficients, t = 0 and a negative t
    @example(terms=[(F(3), 0), (F(0), 0), (F(5), 0), (F(0), 0)], digits=30, dps=30,
             t_frac=F(7, 3), t_shift=0)
    @example(terms=[(F(3), 0), (F(-5), 0)], digits=30, dps=15, t_frac=F(0), t_shift=0)
    @example(terms=[(F(3), 0), (F(-5), 0), (F(1, 7), 0)], digits=65, dps=30, t_frac=F(-9, 4),
             t_shift=0)
    # mpf_add replaces an operand that lies more than prec + 4 bits below the
    # other, with an exponent more than 100 lower, by a sticky bit.  V has
    # 219 bits whose low 50 sit just under half a unit of the 169-bit result,
    # so a product t > 1 pushes the exact sum past the half and the sticky
    # bit does not: exponent -120 takes the sticky bit, -90 the exact sum,
    # and 3t rounds to 2^10 + 2^-100, whose exponent -100 shows only once
    # the trailing zeros of the rounded product are dropped
    @example(terms=[(F(V_JUST_UNDER_HALF), 0), (F(1), 0)], digits=65, dps=50,
             t_frac=F(2 ** 130 + 1), t_shift=-120)
    @example(terms=[(F(V_JUST_UNDER_HALF), 0), (F(1), 0)], digits=65, dps=50,
             t_frac=F(2 ** 100 + 1), t_shift=-90)
    @example(terms=[(F(V_JUST_UNDER_HALF), 0), (F(3), 0)], digits=65, dps=50,
             t_frac=F(round(F((2 ** 110 + 1) << 60, 3))), t_shift=-160)
    def test_density_rounds_as_mpmath_horner_at_the_precision_of_each_call(
            self, terms, digits, dps, t_frac, t_shift):
        # rho must give the bits of mpf Horner steps at the working precision
        # of each call, whatever the digits it was built at
        coeffs = tuple(fl(c * F(2) ** k, digits) for c, k in terms)
        rho = _density_mpf(MeasureDensity(fl(0, digits), coeffs, len(coeffs)), digits)
        with mpmath.workdps(digits):
            scaled = [c.val / mpmath.factorial(m) for m, c in enumerate(coeffs)]
        with mpmath.workdps(dps):
            t = mpmath.mpf(t_frac.numerator) / t_frac.denominator * mpmath.mpf(2) ** t_shift
            want = mpmath.mpf(0)
            for v in reversed(scaled):
                want = want * t + v
            assert rho(t)._mpf_ == want._mpf_

    def test_nonneg_family_agreement(self):
        md = measure_from_series(nonneg_family_turanian())
        res = laplace_representation_check(md, [F(3, 10), F(6, 10)],
                                           digits=DIGITS, upper_limit=80)
        assert res.max_rel.val < mpmath.mpf("1e-20")

    def test_residual_is_reported_at_working_precision(self):
        # the residual is formed at digits + 15 instead of being rounded to
        # the 50 reported digits: at x = 3/10 the exact rule leaves rounding
        # only, while at x = 3/5 the part of the integral past T = 80 shows
        md = measure_from_series(nonneg_family_turanian())
        res = laplace_representation_check(md, [F(3, 10)], digits=DIGITS,
                                           upper_limit=80)
        assert res.max_rel.digits == DIGITS + 15
        assert res.max_rel.val <= mpmath.mpf("1e-60")
        res = laplace_representation_check(md, [F(3, 5)], digits=DIGITS,
                                           upper_limit=80)
        assert res.max_rel.digits == DIGITS + 15
        assert 0 < res.max_rel.val < mpmath.mpf("1e-50")

    def test_residual_shrinks_with_joint_tightening(self):
        loose_md = measure_from_series(nonneg_family_turanian(order=12))
        loose = laplace_representation_check(loose_md, [F(3, 10)], digits=20,
                                             tol=mpmath.mpf("1e-12"))
        tight_md = measure_from_series(nonneg_family_turanian(order=40))
        tight = laplace_representation_check(tight_md, [F(3, 10)], digits=DIGITS)
        assert tight.max_rel.val <= loose.max_rel.val + mpmath.mpf("1e-60")

    @pytest.mark.parametrize("mu", [F(1, 2), F(1), F(3, 2), F(2)])
    @pytest.mark.parametrize("beta", [F(1), F(2)])
    def test_the_rule_agrees_with_the_tanh_sinh_reference_on_the_benchmark_grid(self, mu, beta):
        md = measure_from_series(nonneg_family_turanian(mu=mu, beta=beta))
        for x in (F(1, 10), F(3, 10), F(3, 5)):
            new = laplace_representation_check(md, [x], digits=DIGITS, upper_limit=80)
            ref = _reference_laplace(md, [x], upper_limit=80)
            assert abs(new.max_rel.val - ref.max_rel.val) < mpmath.mpf("1e-60")
            assert new.note.startswith("gauss-laguerre rule of n = 20 nodes ")
            assert ": density degree 39, exact for degree <= 39; " in new.note

    @pytest.mark.parametrize("md, x_grid, digits, kwargs", [
        (MeasureDensity(fl(0, DIGITS), (fl(0, DIGITS),) * 3, 3), [F(1, 2)], DIGITS, {}),
        (MeasureDensity(fl(0, DIGITS), (fl(1, DIGITS),), 1), [F(1, 2), F(2)], DIGITS, {}),
        (NONNEG_DENSITY, [F(3, 10), F(6, 10)], DIGITS, {"upper_limit": 80}),
        (NONNEG_DENSITY, [F(3, 10)], DIGITS, {}),
        (measure_from_series(nonneg_family_turanian(order=12)), [F(3, 10)], 20,
         {"tol": mpmath.mpf("1e-12")}),
    ])
    def test_the_rule_agrees_with_the_tanh_sinh_reference_on_the_existing_densities(
            self, md, x_grid, digits, kwargs):
        new = laplace_representation_check(md, x_grid, digits=digits, **kwargs)
        ref = _reference_laplace(md, x_grid, digits=digits, **kwargs)
        assert abs(new.max_rel.val - ref.max_rel.val) < mpmath.mpf("1e-60")

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=-10 ** 9, max_value=10 ** 9), min_size=1,
                    max_size=40),
           st.booleans(),
           st.fractions(min_value=0, max_value=2, max_denominator=1000).filter(bool),
           st.fractions(min_value=1, max_value=120, max_denominator=100))
    # the largest degree on the widest window, and a window far inside the
    # bulk, where both sums nearly cancel
    @example(numerators=list(range(1, 41)), nonneg=True, x_frac=F(2), t_frac=F(120))
    @example(numerators=[3, -7, 11, -2, 5, -13] * 6, nonneg=False, x_frac=F(2),
             t_frac=F(1))
    @example(numerators=[1] * 40, nonneg=True, x_frac=F(1, 1000), t_frac=F(1))
    def test_the_window_integral_agrees_with_tanh_sinh_at_30_more_digits(
            self, numerators, nonneg, x_frac, t_frac):
        # random polynomial densities of degree <= 39, coefficients
        # c_m / (m-1)! with c_m = k/7, |k| <= 10^9: the rule's sums against
        # an independent tanh-sinh integral of e^(-t/x) rho(t) over [0, T],
        # rho summed by mpmath.polyval, within 1e-60 of sum_m |c_m| x^m,
        # the transform of |rho|'s coefficientwise envelope over the whole line
        coeffs = tuple(fl(F(abs(c) if nonneg else c, 7), DIGITS) for c in numerators)
        md = MeasureDensity(fl(0, DIGITS), coeffs, len(coeffs))
        work = DIGITS + 15
        rho = _density_mpf(md, work)
        with mpmath.workdps(work):
            x = mpmath.mpf(x_frac.numerator) / x_frac.denominator
            T = mpmath.mpf(t_frac.numerator) / t_frac.denominator
            got = analysis._window_integral(rho, analysis._laguerre_rule(-(-len(coeffs) // 2)),
                                            x, T)
        with mpmath.workdps(work + 30):
            x = mpmath.mpf(x_frac.numerator) / x_frac.denominator
            T = mpmath.mpf(t_frac.numerator) / t_frac.denominator
            poly = [c.val / mpmath.factorial(m) for m, c in enumerate(coeffs)][::-1]
            want = mpmath.quad(lambda t: mpmath.exp(-t / x) * mpmath.polyval(poly, t),
                               _doubling_panels(x, T))
            scale = sum(abs(c.val) * x ** m for m, c in enumerate(coeffs, start=1))
            assert abs(got - want) <= mpmath.mpf("1e-60") * scale

    @pytest.mark.parametrize("order", [3, 4, 39, 40])
    def test_the_rule_is_exact_to_degree_2n_minus_1_and_no_further(self, order):
        # rho(t) = t^(order-1)/(order-1)! has the window integral
        # x^order P(order, T/x), P the regularized lower incomplete Gamma
        # function: ceil(order/2) nodes give it to rounding, one node fewer
        # leaves a quadrature error many orders of magnitude above that
        coeffs = (fl(0, DIGITS),) * (order - 1) + (fl(1, DIGITS),)
        rho = _density_mpf(MeasureDensity(fl(0, DIGITS), coeffs, order), DIGITS + 15)
        n = -(-order // 2)
        with mpmath.workdps(DIGITS + 15):
            x, T = mpmath.mpf(3) / 5, mpmath.mpf(80)
            want = x ** order * mpmath.gammainc(order, 0, T / x, regularized=True)
            exact = analysis._window_integral(rho, analysis._laguerre_rule(n), x, T)
            short = analysis._window_integral(rho, analysis._laguerre_rule(n - 1), x, T)
            assert abs(exact - want) <= mpmath.mpf("1e-60") * want
            assert abs(short - want) > mpmath.mpf("1e-15") * want

    def test_the_rule_is_built_once_per_size_and_precision_and_rho_runs_2n_times(
            self, monkeypatch):
        built, calls = [], [0]
        gauss = mpmath.mp.gauss_quadrature

        def spy_gauss(n, qtype):
            built.append((n, qtype, mpmath.mp.prec))
            return gauss(n, qtype)

        make = analysis._density_mpf

        def spy_density(md, digits):
            rho = make(md, digits)

            def counted(t):
                calls[0] += 1
                return rho(t)
            return counted

        monkeypatch.setattr(analysis, "_LAGUERRE_RULES", {})
        monkeypatch.setattr(mpmath.mp, "gauss_quadrature", spy_gauss)
        monkeypatch.setattr(analysis, "_density_mpf", spy_density)
        order_13 = measure_from_series(nonneg_family_turanian(order=13))
        for _ in range(2):
            calls[0] = 0
            res = laplace_representation_check(NONNEG_DENSITY, [F(3, 10), F(3, 5)],
                                               digits=DIGITS, upper_limit=80)
            assert calls[0] == 2 * 20 * 2
            assert "; 80 integrand calls, 40 per point; " in res.note
            calls[0] = 0
            res = laplace_representation_check(order_13, [F(3, 10)], digits=20,
                                               upper_limit=80)
            assert calls[0] == 2 * 7
            assert ": density degree 12, exact for degree <= 13; 14 integrand calls" in res.note
        with mpmath.workdps(DIGITS + 15):
            prec_65 = mpmath.mp.prec
        with mpmath.workdps(20 + 15):
            prec_35 = mpmath.mp.prec
        assert built == [(20, "laguerre", prec_65), (7, "laguerre", prec_35)]

    def test_the_note_bounds_the_truncation_tail(self):
        # past T = 80 the integral loses e^(-80/x) times the transforms'
        # incomplete Gamma tails: at x = 3/5 that loss is the residual, at
        # x = 1/10 it lies far below the working precision
        work = DIGITS + 15
        bounds, notes = {}, {}
        for x in (F(3, 5), F(1, 10)):
            res = laplace_representation_check(NONNEG_DENSITY, [x], digits=DIGITS,
                                               upper_limit=80)
            with mpmath.workdps(work):
                coeffs = [c.to_mpf(work) for c in NONNEG_DENSITY.density_coeffs]
                xv = mpmath.mpf(x.numerator) / x.denominator
                series_side, xp = NONNEG_DENSITY.atom_at_zero.to_mpf(work), 1
                for c in coeffs:
                    xp = xp * xv
                    series_side += c * xp
                bounds[x] = analysis._truncation_tail(coeffs, xv, mpmath.mpf(80)) / series_side
                epsilon = mpmath.eps / 8
            notes[x] = res.note
            if x == F(3, 5):
                assert bounds[x] >= res.max_rel.val > 1e-60
        assert bounds[F(1, 10)] < epsilon
        for x, note in notes.items():
            assert note.startswith("gauss-laguerre rule of n = 20 nodes in u = t/x on "
                                   "[0, T = 80.0]: density degree 39, exact for degree <= 39; ")
            assert note.endswith(f"; tail past T at most {mpmath.nstr(bounds[x], 3)} "
                                 "of the series side")

    @pytest.mark.parametrize("md, x_grid, digits, tol, T", [
        (NONNEG_DENSITY, [F(3, 10)], DIGITS, None, 40),
        (NONNEG_DENSITY, [F(3, 10), F(6, 10)], DIGITS, None, 80),
        (ORDER_12_DENSITY, [F(3, 10)], 20, mpmath.mpf("1e-12"), 40),
        (SINGLE_TERM, [F(1, 2), F(2)], DIGITS, None, 320),
        (SINGLE_TERM, [F(1000)], DIGITS, None, 163840),
    ], ids=["order-40", "order-40-two-points", "order-12", "single-term", "single-term-x1000"])
    def test_the_default_window_is_the_first_whose_tail_bound_meets_tol(
            self, md, x_grid, digits, tol, T):
        res = laplace_representation_check(md, x_grid, digits=digits, tol=tol)
        assert f"on [0, T = {mpmath.nstr(mpmath.mpf(T), 6)}]: " in res.note
        pinned = laplace_representation_check(md, x_grid, digits=digits, upper_limit=T)
        assert (res.max_rel.val, res.note) == (pinned.max_rel.val, pinned.note)
        # the bound meets tol |series side| at every x at T, and misses it
        # at some x one doubling earlier
        work = digits + 15
        with mpmath.workdps(work):
            tol = mpmath.mpf(10) ** (10 - digits) if tol is None else tol
            xs = [mpmath.mpf(x.numerator) / x.denominator for x in x_grid]
            sides = _series_sides(md, xs, work)
            assert _tail_meets_tol(md, xs, sides, tol, T, work)
            assert T == 40 or not _tail_meets_tol(md, xs, sides, tol, T // 2, work)

    @pytest.mark.parametrize("scale", [F(2) ** 100, F(2) ** -100])
    @pytest.mark.parametrize("md, x_grid, T", [(SINGLE_TERM, [F(1, 2), F(2)], 320),
                                               (NONNEG_DENSITY, [F(3, 10), F(6, 10)], 80)],
                             ids=["single-term", "order-40"])
    def test_the_default_window_is_relative_to_the_series_side(self, md, x_grid, T, scale):
        # a power-of-2 scale multiplies the tail bound and the series side
        # alike and exactly, so the window stays; a bound held against tol
        # alone would move it (to 640 and to 80 for the single term at 2^100
        # and 2^-100)
        factor = fl(scale, DIGITS)
        scaled = MeasureDensity(md.atom_at_zero * factor,
                                tuple(c * factor for c in md.density_coeffs), md.order)
        res = laplace_representation_check(scaled, x_grid, digits=DIGITS)
        assert f"on [0, T = {mpmath.nstr(mpmath.mpf(T), 6)}]: " in res.note

    def test_no_window_meets_the_tolerance_far_out(self):
        # at x = 10^12 even T = 40 2^29 leaves e^(-T/x) near 1
        with pytest.raises(DomainError, match="no finite quadrature window"):
            laplace_representation_check(SINGLE_TERM, [F(10 ** 12)], digits=DIGITS)

    # 0, -5 and nan leave no window to integrate over, and inf no finite one
    @pytest.mark.parametrize("upper_limit", [0, -5, "nan", "inf"])
    def test_an_upper_limit_that_is_not_finite_and_positive_is_refused_before_any_work(
            self, upper_limit, monkeypatch):
        # building the density first would call None and raise TypeError
        monkeypatch.setattr(analysis, "_density_mpf", None)
        with pytest.raises(DomainError, match="upper_limit must be finite and positive"):
            laplace_representation_check(NONNEG_DENSITY, [F(3, 10)], digits=DIGITS,
                                         upper_limit=upper_limit)

    # 0 once gave a residual of 0.0 at 15 digits, and -20 one "at -5 digits"
    @pytest.mark.parametrize("digits", [0, -20])
    def test_digits_below_one_are_refused_before_any_work(self, digits, monkeypatch):
        monkeypatch.setattr(analysis, "_density_mpf", None)
        with pytest.raises(DomainError, match="digits >= 1"):
            laplace_representation_check(NONNEG_DENSITY, [F(1, 2)], digits=digits,
                                         upper_limit=80)

    def test_a_fraction_upper_limit_is_read_at_the_working_precision(self, monkeypatch):
        # Fraction(80) once raised mpmath's TypeError; it gives the bits of 80
        want = laplace_representation_check(NONNEG_DENSITY, [F(3, 10)], digits=DIGITS,
                                             upper_limit=80)
        got = laplace_representation_check(NONNEG_DENSITY, [F(3, 10)], digits=DIGITS,
                                           upper_limit=F(80))
        assert got.max_rel.val._mpf_ == want.max_rel.val._mpf_
        assert got.note == want.note
        monkeypatch.setattr(analysis, "_density_mpf", None)
        with pytest.raises(DomainError, match="upper_limit must be finite and positive"):
            laplace_representation_check(NONNEG_DENSITY, [F(3, 10)], digits=DIGITS,
                                         upper_limit=F(-1, 3))

    @pytest.mark.parametrize("x", [0.3, mpmath.mpf("0.3"), "3/10"])
    def test_an_evaluation_point_that_is_not_rational_is_refused_before_any_work(
            self, x, monkeypatch):
        # a float once died on x.numerator, after the density was built
        monkeypatch.setattr(analysis, "_density_mpf", None)
        with pytest.raises(DomainError, match="Fractions or ints"):
            laplace_representation_check(NONNEG_DENSITY, [F(1, 2), x], digits=DIGITS)
