"""q-Pochhammer, q-Gamma, q-exponential, symmetric polynomials, majorization."""

import random
from fractions import Fraction as F
from itertools import combinations
from math import prod

import mpmath
import pytest

from qturan import identities, qcore, series
from qturan.qcore import (
    QBase,
    _infinite_tail_terms,
    elementary_symmetric,
    pochhammer_classical,
    q_exponential,
    qgamma,
    qgamma_ratio,
    qpochhammer_finite,
    qpochhammer_infinite,
    weak_supermajorizes,
)
from qturan.scalar import (
    DimensionError,
    DomainError,
    ExactModeError,
    OffGridError,
    PoleError,
    ex,
    fl,
)
from qturan.turanian import Family, TuranianSpec, delta_tilde_sign_certificate

Q12 = QBase.exact(q=F(1, 2))
Q14 = QBase.exact(q=F(1, 4))
QF = QBase.floating(F(1, 2), 50)

# comparisons against raw mpf oracles need headroom over the library's 50
mpmath.mp.dps = 60


def direct_product(a, q, n):
    out = F(1)
    for k in range(n):
        out *= 1 - a * q ** k
    return out


class TestQPochhammerFinite:
    def test_empty_product(self):
        assert qpochhammer_finite(ex(F(7, 3)), Q12, 0).to_fraction() == 1

    def test_reference_values(self):
        assert qpochhammer_finite(ex(F(1, 2)), Q14, 2).to_fraction() == F(7, 16)
        assert qpochhammer_finite(Q12.q, Q12, 3).to_fraction() == F(21, 64)

    def test_matches_direct_product_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            a = F(rng.randint(-8, 8), rng.randint(1, 9))
            n = rng.randint(0, 12)
            got = qpochhammer_finite(ex(a), Q12, n).to_fraction()
            assert got == direct_product(a, F(1, 2), n)

    def test_splitting_identity_exact(self):
        # (a; q)_{m+n} = (a; q)_m * (a q^m; q)_n, also over the quadratic field
        rng = random.Random(11)
        for q in (Q12, QBase.exact(q=F(3, 4))):
            for _ in range(10):
                m, n = rng.randint(0, 8), rng.randint(0, 8)
                a = q.qpow(rng.randint(0, 5)) * F(rng.randint(1, 5), 7)
                whole = qpochhammer_finite(a, q, m + n)
                left = qpochhammer_finite(a, q, m)
                right = qpochhammer_finite(a * q.qpow(2 * m), q, n)
                assert (whole - left * right).is_zero()


class TestQPochhammerInfinite:
    def test_a_zero(self):
        assert qpochhammer_infinite(fl(0), QF).val == 1

    def test_a_one_vanishes(self):
        assert qpochhammer_infinite(fl(1), QF).val == 0

    def test_against_long_direct_product(self):
        got = qpochhammer_infinite(QF.q, QF, rel_tol=mpmath.mpf("1e-45"))
        with mpmath.workdps(60):
            oracle = mpmath.mpf(1)
            for k in range(1, 201):
                oracle *= 1 - mpmath.mpf(2) ** (-k)
        assert abs(got.val - oracle) < mpmath.mpf("1e-40") * abs(oracle)

    def test_exact_mode_rejected(self):
        with pytest.raises(ExactModeError):
            qpochhammer_infinite(ex(F(1, 3)), Q12)

    @pytest.mark.parametrize("q", [F(3, 10), F(1, 2), F(3, 4), F(4, 5), F(9, 10)])
    def test_bits_of_the_context_arithmetic_loop(self, q):
        """The raw-tuple loop gives the bits of the same loop in mpmath's
        context arithmetic at the base's digits, at the default tolerance
        (a = q, q^(5/2), q^(1/2)) and at a looser one."""
        base = QBase.floating(q, digits=50)
        for a in (base.q, base.q_power(F(5, 2)), base.p, fl(F(1, 7), 65)):
            for rel_tol in (None, mpmath.mpf("1e-20")):
                got = qpochhammer_infinite(a, base, rel_tol)
                with mpmath.workdps(50):
                    tol = mpmath.mpf(10) ** -42 if rel_tol is None else rel_tol
                    nterms = _infinite_tail_terms(abs(a.val), base, tol)
                    want, t = mpmath.mpf(1), a.val
                    for _ in range(nterms):
                        want *= 1 - t
                        t *= base.q.val
                assert got.digits == 50
                assert got.val._mpf_ == want._mpf_


class TestQGamma:
    def test_value_at_one_and_two(self):
        assert abs(qgamma(F(1), QF).val - 1) < mpmath.mpf("1e-40")
        assert abs(qgamma(F(2), QF).val - 1) < mpmath.mpf("1e-40")

    def test_telescoped_value_at_three(self):
        # Gamma_q(3) = 1 + q
        assert abs(qgamma(F(3), QF).val - mpmath.mpf("1.5")) < mpmath.mpf("1e-40")

    def test_functional_equation_on_grid(self):
        rel = mpmath.mpf("1e-40")
        for z in (F(1, 2), F(3, 4), F(3, 2), F(5, 2), F(4)):
            lhs = qgamma(z + 1, QF, rel_tol=rel)
            q = QF.q.val
            zv = mpmath.mpf(z.numerator) / z.denominator
            rhs = (1 - q ** zv) / (1 - q) * qgamma(z, QF, rel_tol=rel).val
            assert abs(lhs.val - rhs) <= 10 * rel * abs(rhs)

    def test_one_product_of_q_per_float_base(self, monkeypatch):
        """A float tilde certificate's four Gamma_q share (q; q)_inf, formed
        once on its base: five infinite products instead of eight.  An
        explicit rel_tol still forms its own."""
        calls = []
        product = qcore.qpochhammer_infinite

        def counted(a, q, rel_tol=None):
            calls.append(rel_tol)
            return product(a, q, rel_tol)

        monkeypatch.setattr(qcore, "qpochhammer_infinite", counted)
        q = QBase.floating(F(3, 4), 50)
        spec = TuranianSpec(Family.HEINE_F_TILDE, F(1, 2), F(1, 2), F(3, 2), q, 60)
        assert delta_tilde_sign_certificate(spec).matches_expected
        assert len(calls) == 5
        held = q.qq_inf
        assert held.val._mpf_ == product(q.q, QBase.floating(F(3, 4), 50)).val._mpf_
        loose = mpmath.mpf(10) ** -30
        qgamma(F(3, 2), q, rel_tol=loose)
        assert calls[5:] == [loose, loose] and q.qq_inf is held

    @pytest.mark.parametrize("alpha,products", [(F(0), 2), (F(1, 2), 4), (F(1), 4)])
    def test_qbessel_functions_share_the_held_product(self, monkeypatch, alpha, products):
        """J1 and J2 take (q; q)_inf from the base, and at alpha = 0 their
        (q^(alpha+1); q)_inf too: the connection check makes 2 products
        there and 4 elsewhere (5 when each function formed its own)."""
        calls = []
        product = qcore.qpochhammer_infinite

        def counted(a, q, rel_tol=None):
            calls.append(a)
            return product(a, q, rel_tol)

        for module in (qcore, series, identities):
            monkeypatch.setattr(module, "qpochhammer_infinite", counted)
        q = QBase.floating(F(1, 2), 50)
        identities.verify_connection_formula(alpha, 1, q)
        assert len(calls) == products
        assert q.qq_inf.val._mpf_ == product(q.q, QBase.floating(F(1, 2), 50)).val._mpf_

    def test_pole_errors(self):
        for z in (F(0), F(-1), F(-3)):
            with pytest.raises(PoleError):
                qgamma(z, QF)

    def test_exact_mode_rejected(self):
        with pytest.raises(ExactModeError):
            qgamma(F(2), Q12)


class TestQGammaRatio:
    def test_k_zero(self):
        assert qgamma_ratio(F(7, 2), 0, Q12).to_fraction() == 1

    def test_reference_values(self):
        assert qgamma_ratio(F(1), 2, Q12).to_fraction() == F(3, 2)
        assert qgamma_ratio(F(2), 1, Q12).to_fraction() == F(3, 2)

    def test_recovers_gamma_quotient(self):
        # ratio(x, k) * Gamma_q(x) = Gamma_q(x + k), cross-backend
        for x, k in ((F(1), 2), (F(1, 2), 3), (F(5, 2), 1)):
            exact_ratio = qgamma_ratio(x, k, Q12)
            lhs = exact_ratio.to_mpf(50) * qgamma(x, QF).val
            rhs = qgamma(x + k, QF).val
            assert abs(lhs - rhs) < mpmath.mpf("1e-38") * abs(rhs)

    def test_pole(self):
        with pytest.raises(PoleError):
            qgamma_ratio(F(-2), 1, Q12)

    def test_off_grid_exponent(self):
        with pytest.raises(OffGridError):
            qgamma_ratio(F(1, 3), 1, Q12)


class TestQExponential:
    def test_z_zero(self):
        assert q_exponential(ex(0), Q12, 30).to_fraction() == 1

    @pytest.mark.parametrize("z", [F(1, 4), F(-1, 4)])
    def test_matches_reciprocal_product(self, z):
        # truncation tail of the sum: |z|^(M+1) / ((1-|z|) (q; q)_inf)
        inv = 1 / qpochhammer_infinite(fl(z), QF, rel_tol=mpmath.mpf("1e-45"))
        qq_inf = qpochhammer_infinite(QF.q, QF).val
        for order in (60, 75):
            got = q_exponential(fl(z), QF, order)
            zv = abs(mpmath.mpf(z.numerator) / z.denominator)
            tail = zv ** (order + 1) / ((1 - zv) * qq_inf)
            assert abs(got.val - inv.val) <= tail + mpmath.mpf("1e-44")
        # at order 75 the agreement is below 1e-40
        got = q_exponential(fl(z), QF, 75)
        assert abs(got.val - inv.val) < mpmath.mpf("1e-40") * abs(inv.val)

    @pytest.mark.parametrize("qv", [F(1, 2), F(3, 4)])
    @pytest.mark.parametrize("z", [F(1, 4), F(-1, 3), F(0)])
    def test_exact_value_is_the_direct_sum(self, qv, z):
        q = QBase.exact(q=qv)
        want = sum(z ** k / direct_product(qv, qv, k) for k in range(31))
        assert q_exponential(ex(z), q, 30).to_fraction() == want

    def test_divergence_error(self):
        with pytest.raises(DomainError):
            q_exponential(ex(1), Q12, 10)
        with pytest.raises(DomainError):
            q_exponential(fl("1.5"), QF, 10)


class TestElementarySymmetric:
    def test_single_entry(self):
        e = elementary_symmetric([ex(5)])
        assert [v.to_fraction() for v in e] == [1, 5]

    def test_reference_values(self):
        e = elementary_symmetric([ex(2), ex(3), ex(4)])
        assert [v.to_fraction() for v in e] == [1, 9, 26, 24]
        e = elementary_symmetric([ex(1)] * 3)
        assert [v.to_fraction() for v in e] == [1, 3, 3, 1]

    def test_against_subset_enumeration(self):
        rng = random.Random(3)
        for r in range(2, 9):
            vals = [F(rng.randint(-6, 9), rng.randint(1, 4)) for _ in range(r)]
            got = [v.to_fraction() for v in elementary_symmetric([ex(v) for v in vals])]
            for k in range(r + 1):
                brute = sum((prod(sub, start=F(1)) for sub in combinations(vals, k)),
                            F(0)) if k else F(1)
                assert got[k] == brute


class TestWeakSupermajorization:
    def test_reflexive(self):
        v = [ex(F(1, 2)), ex(3)]
        assert weak_supermajorizes(v, v)

    def test_empty_vectors_are_refused(self):
        with pytest.raises(DimensionError, match="nonempty"):
            weak_supermajorizes([], [])

    def test_reference_examples(self):
        d = [ex(1), ex(2)]
        assert weak_supermajorizes(d, [ex(F(1, 2)), ex(F(3, 2))])
        assert not weak_supermajorizes(d, [ex(F(3, 2)), ex(F(8, 5))])

    def test_antitone_in_c(self):
        # growing one c entry (keeping sort order) can only break the relation
        rng = random.Random(19)
        for _ in range(200):
            n = rng.randint(1, 5)
            c = sorted(F(rng.randint(1, 20)) for _ in range(n))
            d = sorted(F(rng.randint(1, 20)) for _ in range(n))
            before = weak_supermajorizes([ex(v) for v in d], [ex(v) for v in c])
            i = rng.randrange(n)
            bumped = list(c)
            bumped[i] += rng.randint(1, 5)
            if sorted(bumped) != bumped:
                continue
            after = weak_supermajorizes([ex(v) for v in d], [ex(v) for v in bumped])
            if after:
                assert before


class TestPochhammerClassical:
    def test_values(self):
        assert pochhammer_classical(F(7, 2), 0).to_fraction() == 1
        assert pochhammer_classical(3, 2).to_fraction() == 12
        assert pochhammer_classical(1, 4).to_fraction() == 24


def test_qbase_off_grid_rejection():
    with pytest.raises(OffGridError):
        Q12.q_power(F(1, 3))
    # half steps are exact: q^(5/2) = p^5
    assert (Q12.q_power(F(5, 2)) ** 2).to_fraction() == F(1, 32)
