"""Structural certificates: complete monotonicity, multiplicative convexity,
and the Laplace representation of an entire nonnegative-coefficient series.

Complete monotonicity is certified through forward finite differences on a
uniform grid: for a completely monotone function the alternating-sign
differences (-1)^n Delta^n f are nonnegative at every order, which is the
literal testable surrogate for derivative sign alternation.  No symbolic
derivatives are taken anywhere.

The Laplace side represents sum_m c_m x^m (entire, c_m >= 0) as
c_0 + integral_0^infty e^(-t/x) rho(t) dt with density
rho(t) = sum_{m>=1} c_m t^(m-1)/(m-1)!, validated against the closed-form
transform integral_0^infty e^(-t/x) t^(m-1)/(m-1)! dt = x^m.  A truncated
series has a polynomial density of degree order - 1, which a Gauss-Laguerre
rule of ceil(order / 2) nodes in u = t/x integrates exactly: 2n density
evaluations per point, on nodes built once per process, on a window [0, T]
set by a certified bound on the part past T relative to the series side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath
from mpmath.libmp import fzero, mpf_add, mpf_mul, round_nearest

from .identities import Residual, _compare
from .scalar import (
    DimensionError,
    DomainError,
    ExactModeError,
    FloatScalar,
    Scalar,
)
from .series import TruncatedSeries


def complete_monotonicity_check(evaluator, y_grid, max_order: int):
    """Alternating-sign test for forward differences up to max_order.

    max_order must be nonnegative and the grid uniform and longer than
    max_order: exact spacings equal, float spacings within a relative
    1e-20 of the first.  Returns (ok, margins) where margins[n] is the
    minimum of (-1)^n Delta^n f over the grid windows of order n =
    0..max_order.
    """
    if max_order < 0:
        raise DimensionError(f"max_order must be nonnegative, not {max_order}")
    if len(y_grid) <= max_order:
        raise DimensionError(
            f"grid of {len(y_grid)} points cannot support order {max_order}"
        )
    spacings = [y_grid[i + 1] - y_grid[i] for i in range(len(y_grid) - 1)]
    h0 = spacings[0]
    if isinstance(h0, FloatScalar):
        uniform = all(abs(h - h0) <= abs(h0) * Fraction(1, 10**20) for h in spacings[1:])
    else:
        uniform = all(h == h0 for h in spacings[1:])
    if not uniform:
        raise DimensionError("grid must be uniform")
    level = [evaluator(y) for y in y_grid]
    margins = [min(level)]
    sign = 1
    for _ in range(max_order):
        level = [b - a for a, b in zip(level, level[1:])]
        sign = -sign
        margins.append(min(v * sign for v in level))
    ok = all(m.sign() >= 0 for m in margins)
    return ok, margins


def multiplicative_convexity_check(evaluator, pairs):
    """phi(sqrt(x1 x2)) <= sqrt(phi(x1) phi(x2)) on each positive pair.

    Valid for series with nonnegative coefficients; returns (ok, margins)
    with margin = sqrt(phi(x1) phi(x2)) - phi(sqrt(x1 x2)).  At least one
    pair is needed, of FloatScalar points: the square roots are not exact.
    """
    if not pairs:
        raise DimensionError("multiplicative convexity needs at least one pair of points")
    if not all(isinstance(x, FloatScalar) for pair in pairs for x in pair):
        raise ExactModeError("multiplicative convexity needs FloatScalar points")
    margins = []
    for x1, x2 in pairs:
        if not (x1.sign() > 0 and x2.sign() > 0):
            raise DomainError("multiplicative convexity needs positive points")
        geo = (x1 * x2).sqrt()
        rhs = (evaluator(x1) * evaluator(x2)).sqrt()
        margins.append(rhs - evaluator(geo))
    return all(m.sign() >= 0 for m in margins), margins


@dataclass(frozen=True)
class MeasureDensity:
    """Atom at zero plus the polynomial Laplace density of an entire series.

    density(t) = sum_{m=1}^{order} coeff_m t^(m-1)/(m-1)!; the weight is
    fixed by the transform identity
    integral_0^infty e^(-t/x) t^(m-1)/(m-1)! dt = x^m.
    """

    atom_at_zero: Scalar
    density_coeffs: tuple
    order: int

    def __post_init__(self):
        if len(self.density_coeffs) != self.order:
            raise ValueError("density needs coefficients for m = 1..order")


def measure_from_series(ts: TruncatedSeries) -> MeasureDensity:
    return MeasureDensity(ts.coeffs[0], tuple(ts.coeffs[1:]), ts.order)


def tau_density(md: MeasureDensity, t: Scalar) -> Scalar:
    """The density at t > 0 (the atom at zero is not included)."""
    total = None
    for m, c in enumerate(md.density_coeffs, start=1):
        term = c * (t ** (m - 1))
        if m > 1:
            term = term / factorial(m - 1)
        total = term if total is None else total + term
    if total is None:
        return t - t
    return total


def _density_mpf(md: MeasureDensity, digits: int):
    with mpmath.workdps(digits):
        vals = [(c.to_mpf(digits) / mpmath.mpf(factorial(m)))._mpf_
                for m, c in enumerate(md.density_coeffs)][::-1]  # highest degree first

    def rho(t):
        """Horner's rule acc * t + v through the libmp calls that mpf's ``*``
        and ``+`` make, rounded to nearest at the working precision in
        effect, so the bits are those of mpf arithmetic."""
        prec = mpmath.mp.prec
        t = t._mpf_
        acc = fzero
        for v in vals:
            acc = mpf_add(mpf_mul(acc, t, prec, round_nearest), v, prec, round_nearest)
        return mpmath.mp.make_mpf(acc)

    return rho


# (n, working precision in bits) -> the n-point Gauss-Laguerre rule as (u_k, w_k) pairs
_LAGUERRE_RULES = {}


def _laguerre_rule(n: int) -> tuple:
    """The n-point Gauss-Laguerre rule at the working precision:
    integral_0^infty e^(-u) p(u) du = sum_k w_k p(u_k) for every polynomial
    p of degree <= 2n - 1.  ``mpmath.gauss_quadrature`` builds it by the
    Golub-Welsch method (Math. Comp. 23, 1969) without caching it, so each
    (n, precision) is built once per process here."""
    key = n, mpmath.mp.prec
    rule = _LAGUERRE_RULES.get(key)
    if rule is None:
        nodes, weights = mpmath.mp.gauss_quadrature(n, "laguerre")
        rule = _LAGUERRE_RULES[key] = tuple(zip(nodes, weights))
    return rule


def _window_integral(rho, rule, x, T):
    """integral_0^T e^(-t/x) rho(t) dt through ``rule`` in u = t/x: the whole
    line less the part past T, where t = T + x u,

        x sum_k w_k rho(x u_k) - x e^(-T/x) sum_k w_k rho(T + x u_k),

    both sums exact up to rounding while rho's degree is at most 2n - 1,
    n = len(rule).  Calls rho 2n times, at the working precision."""
    whole = past = mpmath.mpf(0)
    for u, w in rule:
        xu = x * u
        whole += w * rho(xu)
        past += w * rho(T + xu)
    return x * (whole - mpmath.exp(-T / x) * past)


def _truncation_tail(coeffs, x, T):
    """Bound on what the Laplace integral of the density with coefficients
    ``coeffs`` (c_1, c_2, ... as mpf) loses past T at x: the transform of
    t^(m-1)/(m-1)! past T is x^m e^(-T/x) sum_(j<m) (T/x)^j / j!, so the
    loss is at most e^(-T/x) sum_m |c_m| x^m sum_(j<m) (T/x)^j / j!, summed
    here cumulatively in O(len(coeffs)) operations at the working precision
    (the sum itself when every c_m >= 0)."""
    r = T / x
    total, xp, term, partial = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(0)
    for m, c in enumerate(coeffs, start=1):
        xp = xp * x
        partial += term             # sum_(j<m) (T/x)^j / j!
        term = term * r / m
        total += abs(c) * xp * partial
    return total * mpmath.exp(-r)


def laplace_representation_check(md: MeasureDensity, x_grid, *,
                                 digits: int = 50, upper_limit=None,
                                 tol=None) -> Residual:
    """Gauss-Laguerre quadrature of the Laplace side against direct series evaluation.

    For each x the integral c_0 + integral_0^T e^(-t/x) density(t) dt is
    compared to c_0 + sum_m c_m x^m.  The density is a polynomial of degree
    order - 1, so one n-point Gauss-Laguerre rule, n = max(1, ceil(order /
    2)), integrates it with no quadrature error (``_window_integral``): 2n
    density calls per point.  The rule is built once per (n, working
    precision) and process (``_laguerre_rule``).  Both sides are compared
    at the working precision, digits + 15, so the residual shows rounding
    and the part of the integral past T instead of being rounded to 0.
    ``tol`` (default 10^(10 - digits)) bounds that part relative to the
    series side: T defaults to the first 40 2^k, k = 0..29, at which its
    certified bound (``_truncation_tail``) is at most tol |series side| at
    every x, else DomainError.  The note states the rule, n, the density
    degree against the degree the rule is exact for, the integrand calls,
    and the largest of those bounds over x relative to the series side.
    ``x_grid`` holds at least one positive point,
    as a Fraction or an int; an ``upper_limit`` must be finite and positive,
    and a Fraction one is read as numerator over denominator at the working
    precision.  ``digits`` must be at least 1 and every c_m >= 0.
    """
    if digits < 1:
        raise DomainError(f"the Laplace check needs digits >= 1, not {digits}")
    if not x_grid:
        raise DimensionError("the Laplace check needs at least one evaluation point")
    if not all(isinstance(x, (Fraction, int)) for x in x_grid):
        raise DomainError("evaluation points must be given as Fractions or ints")
    if any(x <= 0 for x in x_grid):
        raise DomainError("evaluation points must be positive")
    for m, c in enumerate(md.density_coeffs, start=1):
        if c.sign() < 0:
            raise DomainError(f"density coefficient c_{m} is negative: no positive measure")
    # 15 guard digits absorb quadrature round-off below the reported digits
    work = digits + 15
    if upper_limit is not None:
        with mpmath.workdps(work):
            if isinstance(upper_limit, Fraction):
                T = mpmath.mpf(upper_limit.numerator) / upper_limit.denominator
            else:
                T = mpmath.mpf(upper_limit)
        if not (mpmath.isfinite(T) and T > 0):
            raise DomainError(f"upper_limit must be finite and positive, not {upper_limit!r}")
    rho = _density_mpf(md, work)
    atom = md.atom_at_zero.to_mpf(work)
    n = max(1, -(-md.order // 2))
    with mpmath.workdps(work):
        if tol is None:
            tol = mpmath.mpf(10) ** (10 - digits)
        xs = [mpmath.mpf(x.numerator) / x.denominator for x in x_grid]
        coeffs = [c.to_mpf(work) for c in md.density_coeffs]
        sides = []
        for x in xs:
            series_side, xp = atom, mpmath.mpf(1)
            for c in coeffs:
                xp = xp * x
                series_side += c * xp
            sides.append(series_side)
        if upper_limit is None:
            for k in range(30):
                T = mpmath.mpf(40 << k)
                if all(_truncation_tail(coeffs, x, T) <= tol * abs(side)
                       for x, side in zip(xs, sides)):
                    break
            else:
                raise DomainError("no finite quadrature window meets the tolerance")
        rule = _laguerre_rule(n)
        tail = mpmath.mpf(0)
        pairs = []
        for x, series_side in zip(xs, sides):
            integral = atom + _window_integral(rho, rule, x, T)
            lost = _truncation_tail(coeffs, x, T)
            if lost:
                tail = max(tail, lost / abs(series_side) if series_side else mpmath.inf)
            pairs.append((FloatScalar(integral, work), FloatScalar(series_side, work)))
        note = (f"gauss-laguerre rule of n = {n} nodes in u = t/x on [0, T = "
                f"{mpmath.nstr(T, 6)}]: density degree {max(md.order - 1, 0)}, exact for "
                f"degree <= {2 * n - 1}; {2 * n * len(xs)} integrand calls, {2 * n} per "
                f"point; tail past T at most {mpmath.nstr(tail, 3)} of the series side")
    return _compare(pairs, "float", md.order, "laplace-representation", note)
