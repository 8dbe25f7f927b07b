"""Coefficientwise and pointwise identity verification.

Each verifier builds the two sides of one identity independently and
reports a :class:`Residual`.  In exact mode the comparison is exact
(``exact_zero`` is meaningful: truncation introduces no error because the
identities hold as formal power series); in float mode the residual records
the maximum absolute and relative deviation.

The Rahman product formula and its finite-sum corollary share one
computation: the finite-sum check at m is coefficient m of the two product
sides, each formed in O(m) by ``TruncatedSeries.product_coefficient``.  The
4phi3 is a :class:`~qturan.series.TermRatio` series like every other: its
four upper parameters +-q^((v+e-1)/2), +-q^((v+e)/2) pair by
(a; q)_k (-a; q)_k = (a^2; q^2)_k into the base-q^2 parameters
(``upper_sq``) A = q^(v+e-1) and q A, which keeps half-integer v, e inside
the exact field.  When v+e = 1 the lower parameter A equals 1 and the
coefficient is a removable 0/0 form whose limit replaces
(1; q^2)_k / (1; q)_k by (-1; q)_k / 2: the upper parameter -1, with
coefficients 1..M halved.

The linearization identity of the paper and its q -> 1 (Kummer) case are
written once, in :func:`_linearization`; the q-series, confluent series and
the two pointwise forms of the q -> 1 study supply their own F and
Pochhammer symbol.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .qcore import QBase, pochhammer_classical, qgamma, qpochhammer_finite
from .series import (
    PhiSpec,
    TermRatio,
    TruncatedSeries,
    geometric_tail_order,
    heine_f_series,
    kummer_1f1_unit_top,
    kummer_1f1_value,
    qbessel_j1,
    qbessel_j2,
    tphis_series,
)
from .qcore import qpochhammer_infinite
from .scalar import (
    CollisionError,
    DomainError,
    FloatScalar,
    HypothesisError,
    Scalar,
    as_fraction,
    ex,
    fl,
    zero_like,
)


@dataclass(frozen=True)
class Residual:
    mode: str
    max_abs: Scalar
    max_rel: Scalar
    order_checked: int
    exact_zero: bool
    label: str = ""
    note: str | None = None


def _compare(pairs, mode: str, order: int, label: str, note=None) -> Residual:
    """Residual from (lhs, rhs) pairs; 0/0 positions count as zero deviation."""
    max_abs = None
    max_rel = None
    all_zero = True
    for lhs, rhs in pairs:
        diff = abs(lhs - rhs)
        if diff.is_zero():
            rel = diff          # the value and digits of 0 / max(|lhs|, |rhs|)
        else:
            all_zero = False
            rel = diff / max(abs(lhs), abs(rhs))
        if max_abs is None or diff > max_abs:
            max_abs = diff
        if max_rel is None or rel > max_rel:
            max_rel = rel
    if max_abs is None:
        raise ValueError("no values to compare")
    return Residual(mode, max_abs, max_rel, order,
                    exact_zero=(mode == "exact" and all_zero),
                    label=label, note=note)


def _phi43_rahman_series(nu, eta, q: QBase, order: int) -> TruncatedSeries:
    """The 4phi3 factor of the Rahman product, from its term ratio.

    Coefficient k is (A; q^2)_k (q A; q^2)_k divided by
    (q^v; q)_k (q^e; q)_k (A; q)_k (q; q)_k with A = q^(v+e-1).  In the
    removable case A = 1, (1; q^2)_k / (1; q)_k = (-q; q)_(k-1) =
    (-1; q)_k / 2 for k >= 1: the upper parameter -1 with coefficients
    1..M halved.
    """
    big_a = q.q_power(nu + eta - 1)
    lower = (q.q_power(nu), q.q_power(eta))
    if not (big_a - 1).is_zero():
        return TermRatio(q.one, (), lower + (big_a,), q,
                         upper_sq=(big_a, q.q_power(nu + eta))).series(order)
    half = TermRatio(q.one / 2, (-q.one,), lower, q, upper_sq=(q.q,)).series(order)
    return TruncatedSeries((q.one,) + half.coeffs[1:], order, half.tail_note)


def _rahman_factors(nu, eta, q: QBase, order: int):
    """The factor pairs of the two sides of the Rahman product formula.

    Left: F(nu) and F(eta), Heine's 2phi1(0, 0; q^v; x), which checks
    nu, eta > 0.  Right: the paired 4phi3 and e_q(x), whose coefficient j
    is 1/(q; q)_j.
    """
    left = (heine_f_series(nu, q, order), heine_f_series(eta, q, order))
    e_q = TermRatio(q.one, (), (), q).series(order)
    return left, (_phi43_rahman_series(nu, eta, q, order), e_q)


def verify_rahman_product(nu, eta, q: QBase, order: int) -> Residual:
    """Product of two Heine series against e_q times the paired 4phi3."""
    nu, eta = as_fraction(nu), as_fraction(eta)
    (f_nu, f_eta), (phi43, e_q) = _rahman_factors(nu, eta, q, order)
    pairs = list(zip((f_nu * f_eta).coeffs, (phi43 * e_q).coeffs))
    return _compare(pairs, q.mode, order, f"rahman-product(nu={nu},eta={eta})")


def verify_finite_sum_identity(nu, eta, q: QBase, m: int) -> Residual:
    """The order-m coefficient identity: coefficient m of the Rahman product."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    nu, eta = as_fraction(nu), as_fraction(eta)
    (f_nu, f_eta), (phi43, e_q) = _rahman_factors(nu, eta, q, m)
    pair = (f_nu.product_coefficient(f_eta, m), phi43.product_coefficient(e_q, m))
    return _compare([pair], q.mode, m, f"finite-sum(nu={nu},eta={eta},m={m})")


def verify_connection_formula(alpha, y, q: QBase, order: int | None = None) -> Residual:
    """J2_alpha(y) against (-y^2/4; q)_infty J1_alpha(y), pointwise."""
    if q.is_exact:
        raise DomainError("the connection formula is verified in float mode")
    yv = q.scalar(y)
    if not abs(yv) < FloatScalar(2, q.digits):
        raise DomainError("|y| < 2 required")
    if order is None:
        order = geometric_tail_order(abs(yv) * abs(yv) / 4,
                                     FloatScalar(10, q.digits) ** (6 - q.digits), minimum=120)
    lhs = qbessel_j2(alpha, yv, q, order)
    factor = qpochhammer_infinite(-(yv * yv) / 4, q)
    rhs = factor * qbessel_j1(alpha, yv, q, order)
    return _compare([(lhs, rhs)], q.mode, order,
                    f"connection(alpha={alpha},y={y})")


def heine_phi_q0_series(c, q: QBase, order: int) -> TruncatedSeries:
    """2phi1(q, 0; q^c; x) = sum_n x^n / (q^c; q)_n as a truncated series."""
    spec = PhiSpec((q.q, q.zero), (q.q_power(c),), q)
    return tphis_series(spec, order)


def _linearization(mu, alpha, beta, phi, poch, scale):
    """Both sides of the linearization identity, for alpha a positive integer:

        (mu+beta)_alpha F(mu+alpha) F(mu+beta) - (mu)_alpha F(mu) F(mu+alpha+beta)
          = sum_{j<alpha} (mu+1+j)_(alpha-1-j) (mu+alpha+beta-1-j)_(1+j) F(mu+1+j)
                          - (mu+j)_(alpha-j) (mu+alpha+beta-j)_j F(mu+alpha+beta-j),

    with F = ``phi`` and (c)_n = ``poch(c, n)``; ``scale(coef, value)`` is
    the product of a Pochhammer coefficient and a value of phi (or a product
    of two).  The four callers differ only in phi, poch and scale.  Each
    distinct F(c) is built once: c = mu+alpha, mu+alpha+beta and, for an
    integer beta, the shifts mu+1+j recur among the terms.
    """
    alpha = as_fraction(alpha)
    if alpha.denominator != 1 or alpha < 1:
        raise HypothesisError(f"alpha must be a positive integer, got {alpha}")
    alpha = int(alpha)
    phi = functools.cache(phi)
    lhs = (scale(poch(mu + beta, alpha), phi(mu + alpha) * phi(mu + beta))
           - scale(poch(mu, alpha), phi(mu) * phi(mu + alpha + beta)))
    rhs = None
    for j in range(alpha):
        term = (scale(poch(mu + 1 + j, alpha - 1 - j) * poch(mu + alpha + beta - 1 - j, 1 + j),
                      phi(mu + 1 + j))
                - scale(poch(mu + j, alpha - j) * poch(mu + alpha + beta - j, j),
                        phi(mu + alpha + beta - j)))
        rhs = term if rhs is None else rhs + term
    return lhs, rhs


def _scaled(coef, series: TruncatedSeries) -> TruncatedSeries:
    return series.scaled(coef)


def _qpoch(q: QBase):
    return lambda c, n: qpochhammer_finite(q.q_power(c), q, n)


def linearization_sides(mu, alpha: int, beta, q: QBase, order: int):
    """Both sides of the finite linearization of the Heine product difference."""
    mu, beta = as_fraction(mu), as_fraction(beta)
    return _linearization(mu, alpha, beta, lambda c: heine_phi_q0_series(c, q, order),
                          _qpoch(q), _scaled)


def verify_linearization(mu, alpha: int, beta, q: QBase, order: int) -> Residual:
    """Coefficientwise check of the linearization identity."""
    lhs, rhs = linearization_sides(mu, alpha, beta, q, order)
    pairs = list(zip(lhs.coeffs, rhs.coeffs))
    return _compare(pairs, q.mode, order,
                    f"linearization(mu={mu},alpha={alpha},beta={beta})")


def kummer_sides(mu, alpha: int, beta, order: int):
    """Both sides of the q -> 1 confluent limit of the linearization."""
    return _linearization(as_fraction(mu), alpha, as_fraction(beta),
                          lambda c: kummer_1f1_unit_top(c, order),
                          lambda c, n: pochhammer_classical(ex(c), n), _scaled)


def verify_kummer_linearization(mu, alpha: int, beta, order: int) -> Residual:
    """Exact rational check of the confluent linearization identity."""
    lhs, rhs = kummer_sides(mu, alpha, beta, order)
    pairs = list(zip(lhs.coeffs, rhs.coeffs))
    return _compare(pairs, "exact", order,
                    f"kummer-linearization(mu={mu},alpha={alpha},beta={beta})")


def _linearization_sides_value(mu, alpha: int, beta, x, q: QBase):
    """Transformed q-side values: argument (1-q)x, scaled by (1-q)^(-alpha)."""
    z = (1 - q.q) * q.scalar(x)
    order = geometric_tail_order(abs(z), FloatScalar(10, q.digits) ** (4 - q.digits),
                                 minimum=60)
    lhs, rhs = _linearization(mu, alpha, beta,
                              lambda c: heine_phi_q0_series(c, q, order).eval(z),
                              _qpoch(q), operator.mul)
    scale = (1 - q.q) ** (-int(alpha))
    return scale * lhs, scale * rhs


def _kummer_sides_value(mu, alpha: int, beta, x, digits: int):
    return _linearization(mu, alpha, beta,
                          lambda c: kummer_1f1_value(c, fl(x, digits), digits),
                          lambda c, n: pochhammer_classical(ex(c), n).to_float_scalar(digits),
                          operator.mul)


def q_to_1_limit_study(mu, alpha: int, beta, x, q_sequence, *,
                       digits: int = 50) -> list[Residual]:
    """Deviation of the transformed linearization from its confluent limit.

    For each q the q-side is evaluated at argument (1-q)x and rescaled by
    (1-q)^(-alpha); the residual records how far each side sits from the
    corresponding confluent side.  Deviations should decrease as q -> 1.
    """
    mu = as_fraction(mu)
    beta = as_fraction(beta)
    base_lhs, base_rhs = _kummer_sides_value(mu, alpha, beta, x, digits)
    out = []
    for qv in q_sequence:
        q = QBase.floating(qv, digits)
        starving = 1 - q.q < FloatScalar(10, digits) ** Fraction(-digits, 2)
        note = "precision exhaustion: 1-q below 10^(-digits/2)" if starving else None
        lhs_q, rhs_q = _linearization_sides_value(mu, alpha, beta, x, q)
        res = _compare([(lhs_q, base_lhs), (rhs_q, base_rhs)], "float", int(alpha),
                       f"q-to-1(q={qv})", note=note)
        out.append(res)
    return out


def _qpoch_prefixes(x, q: QBase, n: int) -> list:
    """(q^x; q)_j for j = 0..n, as running prefix products."""
    out = [q.one]
    t = q.q_power(x)
    for _ in range(n):
        out.append(out[-1] * (1 - t))
        t = t * q.q
    return out


def verify_recqgamma(mu, beta, q: QBase, m: int) -> Residual:
    """The Gamma_q summation identity at order m, in one formula for both
    modes.  Write G_j = Gamma_q(mu+j) (1-q)^j / c and H_j =
    Gamma_q(mu+beta+j) (1-q)^j / c'.  Multiplied through by c c', the
    identity reads

        (1-q)^(m+1) sum_{k<=m} (1/(G_(k+1) H_(m-k)) - 1/(G_k H_(m-k+1)))
          = ((q^(mu+beta); q)_(m+1) - (q^mu; q)_(m+1)) (1-q)^(m+1) / (G_(m+1) H_(m+1)).

    Exact mode takes c = Gamma_q(mu) and c' = Gamma_q(mu+beta), which by the
    finite Gamma-ratio identity makes G_j and H_j the prefix products
    (q^mu; q)_j and (q^(mu+beta); q)_j, so the comparison is rational; float
    mode takes c = c' = 1 and evaluates the Gammas directly.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    mu, beta = as_fraction(mu), as_fraction(beta)
    poch, poch_b = (_qpoch_prefixes(x, q, m + 1) for x in (mu, mu + beta))
    one_minus = 1 - q.q
    if q.is_exact:
        G, H = poch, poch_b
        if any(v.is_zero() for v in G[1:] + H[1:]):
            raise CollisionError("Gamma_q pole encountered in the summation")
    else:
        G, H = ([qgamma(x + j, q) * one_minus ** j for j in range(m + 2)]
                for x in (mu, mu + beta))
    lhs = zero_like(q.one)
    for k in range(m + 1):
        lhs = lhs + (q.one / (G[k + 1] * H[m - k]) - q.one / (G[k] * H[m - k + 1]))
    lhs = lhs * one_minus ** (m + 1)
    rhs = (poch_b[m + 1] - poch[m + 1]) * one_minus ** (m + 1) / (G[m + 1] * H[m + 1])
    return _compare([(lhs, rhs)], q.mode, m, f"recqgamma(mu={mu},beta={beta},m={m})")
