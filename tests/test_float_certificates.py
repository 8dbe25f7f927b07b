"""Float-mode sign certificates decide on intervals over q's rational value.

Every float base keeps an exact rational value of q: a Fraction's own, and
the exact value of the base's binary mpf for any other input.  A float
certificate runs exact mode's interval certificate on it.  Such a point
must never disagree with exact mode: same verdict and first violation, and
a margin that is the exact certificate's lower bound cut toward 0 at the
float digits.  Where the intervals cannot decide (a shift off the
half-integer grid, a tilde rho enclosure past the product cap, an
enclosure containing 0, an undecided rho) the float classifier decides,
and no exact series are built.
"""

import json
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from mpmath.libmp import dps_to_prec, to_rational

from qturan import turanian
from qturan.cli import run, scalar_text
from qturan.qcore import QBase
from qturan.scalar import FloatScalar, ex
from qturan.turanian import (
    Family,
    SignVerdict,
    TuranianSpec,
    _Interval,
    reported_turanian_series,
    sign_certificate,
)

VECTORS = {"g-a": ((F(1), F(1), F(1)), (F(2), F(2))),
           "g-b": ((F(2), F(3)), (F(1), F(2)))}
TILDE = (F(1, 2), F(1, 2), F(3, 2))


def value(scalar: FloatScalar) -> F:
    """The exact rational value of a float scalar."""
    return F(*to_rational(scalar.val._mpf_))


@st.composite
def grid_points(draw):
    family = draw(st.sampled_from(["heine-f", "heine-f-tilde", "g-a", "g-b"]))
    # a --q base, or a --p base (q = p^2 with a rational half power)
    base = draw(st.sampled_from([("q", F(1, 4)), ("q", F(1, 2)), ("q", F(3, 4)),
                                 ("p", F(1, 2)), ("p", F(4, 5))]))
    order = draw(st.integers(5, 60))
    ints = st.integers(1, 3).map(F)
    halves = st.integers(1, 6).map(lambda k: F(k, 2))
    if family.startswith("g"):
        mu = draw(st.integers(0, 6).map(lambda k: F(k, 2)))
        alpha, beta = draw(ints), draw(st.integers(0, 3).map(F))
        beta = max(beta, alpha - 1)
    else:
        mu, alpha, beta = draw(halves), draw(halves), draw(halves)
    return family, base, mu, alpha, beta, order


def specs(family, base, mu, alpha, beta, order):
    """The point on a float base and on its exact twin."""
    kind, v = base
    exact = QBase.exact(q=v) if kind == "q" else QBase.exact(p=v)
    floating = QBase.floating(v if kind == "q" else v * v, 50)
    fam = {"heine-f": Family.HEINE_F, "heine-f-tilde": Family.HEINE_F_TILDE}.get(
        family, Family.G_NORMALIZED)
    vectors = VECTORS.get(family, ((), ()))
    return tuple(TuranianSpec(fam, mu, alpha, beta, q, order, *vectors)
                 for q in (floating, exact))


@settings(max_examples=60, deadline=None)
@given(grid_points())
def test_interval_decided_float_reports_agree_with_exact_mode(point):
    float_spec, exact_spec = specs(*point)
    rep, ref = sign_certificate(float_spec), sign_certificate(exact_spec)
    event(f"decided by {rep.decided_by}")
    assert rep.mode == "float" and rep.interval_bits == ref.interval_bits
    if ref.decided_by == "degenerate":
        assert rep.decided_by == "degenerate"
        return
    # the float path leaves to its classifier exactly the points where exact
    # mode stayed undecided
    assert (rep.decided_by == "interval") == (ref.decided_by == "interval")
    if rep.decided_by != "interval":
        assert rep.decided_by == "float"
        return
    assert (rep.verdict, rep.first_violation) == (ref.verdict, ref.first_violation)
    assert rep.matches_expected == ref.matches_expected
    assert rep.normalization == ref.normalization
    assert abs(ex(value(rep.coeff0)) - ref.coeff0) <= abs(ref.coeff0) * F(1, 10**49)
    if ref.min_margin is None:
        assert rep.min_margin is None
        return
    # a lower bound in value and in print, and nonzero
    for margin in (value(rep.min_margin), F(scalar_text(rep.min_margin))):
        assert 0 < margin
        assert ex(margin) <= ref.min_margin


def test_a_cancelling_coeff0_converts_to_the_nearest_float():
    # coeff0 = a - b sqrt(3/4) with both parts near 4.9e3 and the value near
    # -10: rounding the parts apart lost almost three digits (relative error
    # 5.6e-49 at 50 digits, past half an ulp)
    float_spec, exact_spec = specs("g-a", ("q", F(3, 4)), F(1, 2), F(3), F(2), 5)
    rep, ref = sign_certificate(float_spec), sign_certificate(exact_spec)
    assert rep.decided_by == ref.decided_by == "interval"
    c = ref.coeff0
    assert c.m and c.rad == F(3, 4)
    with mpmath.workdps(120):
        want = (c.n + c.m * mpmath.sqrt(mpmath.mpf(3) / 4)) / c.d
    with mpmath.workdps(50):
        assert rep.coeff0.val == +want
    assert abs(ex(value(rep.coeff0)) - c) <= abs(c) * F(1, 10**50)


@pytest.mark.parametrize("qv", [F(1, 4), F(1, 2), F(3, 4)])
@pytest.mark.parametrize("mu, alpha, beta", [(F(1, 2), F(1), F(2)), (F(1), F(1), F(2)),
                                             (F(3, 2), F(1, 2), F(1)), (F(2), F(2), F(3))])
def test_float_tilde_coeff0_meets_its_reported_series(qv, mu, alpha, beta):
    # an integer shift makes rho exact, so the intervals decide; the reported
    # series scales the float Turanian by two Gamma_q, and its coeff0 is
    # within 32 ulps of the certificate's
    spec = TuranianSpec(Family.HEINE_F_TILDE, mu, alpha, beta, QBase.floating(qv, 50), 20)
    rep = sign_certificate(spec)
    assert rep.decided_by == "interval"
    got = reported_turanian_series(spec, rep).coeffs[0].val
    ulp = mpmath.ldexp(1, mpmath.frexp(rep.coeff0.val)[1] - dps_to_prec(50))
    assert abs(got - rep.coeff0.val) <= 32 * ulp


def test_margins_are_cut_toward_zero():
    # 2/3, and the Heine bound below in print, round up to nearest at 50 digits
    cut = ex(F(2, 3)).to_float_toward_zero(50)
    assert scalar_text(cut) == "0." + "6" * 50
    assert value(cut) < F(2, 3)
    assert value(ex(F(-2, 3)).to_float_toward_zero(50)) > F(-2, 3)
    with pytest.raises(ValueError):
        QBase.exact(q=F(1, 2)).p.to_float_toward_zero(50)      # sqrt(1/2)
    float_spec, exact_spec = specs("heine-f", ("q", F(1, 2)), F(1), F(1), F(2), 60)
    bound = sign_certificate(exact_spec).min_margin
    assert F(scalar_text(bound.to_float_scalar(50))) > bound.to_fraction()
    margin = sign_certificate(float_spec).min_margin
    assert value(margin) <= bound.to_fraction() and F(scalar_text(margin)) <= bound.to_fraction()
    assert abs(value(margin) - bound.to_fraction()) < F(1, 10**49)


def test_a_fraction_base_keeps_its_rational_value():
    assert QBase.floating(F(1, 2)).q_frac == F(1, 2)
    assert QBase.floating(F(9, 16)).q_frac == F(9, 16)
    # as given, not the rounding held as the base's mpf
    third = QBase.floating(F(1, 3))
    assert third.q_frac == F(1, 3) != value(third.q)


@pytest.mark.parametrize("q", [0.5, 0.3, FloatScalar(1 / 3), FloatScalar(F(1, 3), 30),
                               mpmath.mpf(0.7), "0.3"],
                         ids=["0.5", "0.3", "FloatScalar(1/3)", "FloatScalar(F(1,3),30)",
                              "mpf", "str"])
def test_any_other_base_keeps_the_exact_value_of_its_mpf(q):
    base = QBase.floating(q)
    assert isinstance(base.q_frac, F) and base.q_frac == value(base.q)
    if isinstance(q, float):
        assert base.q_frac == F(q)
    if q == "0.3":
        assert base.q_frac != F(3, 10) and abs(base.q_frac - F(3, 10)) < F(1, 10**50)


@pytest.mark.parametrize("family, mu", [(Family.HEINE_F, F(1, 3)),
                                        (Family.HEINE_F_TILDE, F(1, 3)),
                                        (Family.G_NORMALIZED, F(1, 3))])
def test_off_grid_mu_goes_to_the_float_classifier(family, mu):
    vectors = VECTORS["g-b"] if family == Family.G_NORMALIZED else ((), ())
    spec = TuranianSpec(family, mu, F(1), F(2), QBase.floating(F(1, 2)), 30, *vectors)
    rep = sign_certificate(spec)
    assert rep.decided_by == "float" and rep.matches_expected
    if family == Family.HEINE_F_TILDE:
        assert rep.normalization == "absolute x^m coefficients"


@pytest.mark.parametrize("q", [FloatScalar(F(1, 2)), 0.5], ids=["FloatScalar", "float"])
def test_a_base_built_from_a_float_is_decided_on_intervals(q):
    rep = sign_certificate(TuranianSpec(Family.HEINE_F, F(1), F(1), F(2),
                                        QBase.floating(q), 30))
    assert rep.decided_by == "interval" and rep.verdict == SignVerdict.ALL_STRICTLY_NEG


FLOAT_BUILT = {"0.5": 0.5, "0.3": 0.3, "FloatScalar(1/3)": FloatScalar(1 / 3)}
ON_GRID = {"heine-f": (Family.HEINE_F, (F(1), F(1), F(2)), ((), ())),
           "tilde": (Family.HEINE_F_TILDE, TILDE, ((), ())),
           "g-b": (Family.G_NORMALIZED, (F(1), F(1), F(2)), VECTORS["g-b"])}


@pytest.mark.parametrize("point", ON_GRID)
@pytest.mark.parametrize("q", FLOAT_BUILT)
def test_float_built_bases_agree_with_exact_mode_on_their_exact_value(q, point):
    # no float classifier and no exact series: the exact twin's intervals
    # decide, with its verdict and its coeff0 rounded to the float digits
    family, shifts, vectors = ON_GRID[point]
    base = QBase.floating(FLOAT_BUILT[q])
    rep = sign_certificate(TuranianSpec(family, *shifts, base, 60, *vectors))
    ref = sign_certificate(TuranianSpec(family, *shifts, QBase.exact(q=base.q_frac), 60,
                                        *vectors))
    assert rep.decided_by == ref.decided_by == "interval"
    assert rep.matches_expected and rep.interval_bits == 100
    assert (rep.verdict, rep.first_violation) == (ref.verdict, ref.first_violation)
    assert rep.normalization == ref.normalization
    assert rep.coeff0.val == ref.coeff0.to_float_scalar(50).val
    assert 0 < value(rep.min_margin) and ex(value(rep.min_margin)) <= ref.min_margin


class _FloatSeries(Exception):
    """Raised where the float classifier starts to build its series."""


def _spy_products(monkeypatch):
    formed = []

    def no_product(*args):
        formed.append(args)
        raise AssertionError("an interval infinite product was formed")

    monkeypatch.setattr(turanian, "_qpoch_inf_interval", no_product)
    return formed


def test_tilde_past_the_product_cap_goes_to_the_float_classifier(monkeypatch):
    # at q = 9999/10000 the rho enclosure would take 785251 factors per
    # product: the point is routed before any is formed.  Its float series
    # take about 10^6 factors per Gamma_q, so the routing is seen where the
    # float classifier starts to build them
    formed = _spy_products(monkeypatch)
    shift_series_of = turanian._shift_series_of

    def spy(family, mu, shifts, q, order, *vectors):
        if not q.is_exact and order == 4:
            raise _FloatSeries
        return shift_series_of(family, mu, shifts, q, order, *vectors)

    monkeypatch.setattr(turanian, "_shift_series_of", spy)
    with pytest.raises(_FloatSeries):
        sign_certificate(TuranianSpec(Family.HEINE_F_TILDE, *TILDE,
                                      QBase.floating(F(9999, 10000)), 4))
    assert formed == []


def test_tilde_just_past_the_product_cap_reports_float(monkeypatch):
    # q = 1999/2000 needs about 153800 factors, past the cap of 2^17
    formed = _spy_products(monkeypatch)
    rep = sign_certificate(TuranianSpec(Family.HEINE_F_TILDE, *TILDE,
                                        QBase.floating(F(1999, 2000), 15), 4))
    assert formed == []
    assert rep.decided_by == "float" and rep.verdict == SignVerdict.ALL_STRICTLY_POS
    assert rep.normalization == "absolute x^m coefficients"


@pytest.mark.parametrize("family", ["heine-f", "heine-f-tilde", "g-b"])
def test_a_straddle_goes_to_the_float_classifier_without_exact_series(family, monkeypatch):
    monkeypatch.setattr(_Interval, "bound_minus", staticmethod(lambda *args: None))
    calls = []
    shift_series_of = turanian._shift_series_of

    def spy(family, mu, shifts, q, order, *vectors):
        calls.append((q.is_exact, order))
        return shift_series_of(family, mu, shifts, q, order, *vectors)

    monkeypatch.setattr(turanian, "_shift_series_of", spy)
    float_spec, _ = specs(family, ("q", F(1, 2)), F(1), F(1), F(2), 30)
    rep = sign_certificate(float_spec)
    assert rep.decided_by == "float" and rep.interval_bits is None and rep.matches_expected
    # the exact heads to order 0, then the float series to the full order
    assert calls == [(True, 0), (False, 30)]


def test_an_undecided_rho_goes_to_the_float_classifier(monkeypatch):
    # rho in [1/2, 2] puts Delta_0 = 1 - rho on both sides of 0
    monkeypatch.setattr(turanian, "_rho_interval", lambda *args: (ex(F(1, 2)), ex(2)))
    rep = sign_certificate(TuranianSpec(Family.HEINE_F_TILDE, *TILDE,
                                        QBase.floating(F(1, 2)), 12))
    assert rep.decided_by == "float" and rep.verdict == SignVerdict.ALL_STRICTLY_POS


def test_float_scan_reports_the_interval_certificate(tmp_path):
    out = tmp_path / "s.json"
    argv = ["scan", "--family", "heine-f-tilde", "--q", "3/4", "--mu-grid", "1/2:3/2:1",
            "--alpha-grid", "1/2", "--beta-grid", "3/2", "--order", "60"]
    assert run([*argv, "--mode", "float", "--out", str(out)]) == 0
    floats = json.loads(out.read_text(encoding="utf-8"))["verdicts"]
    assert run([*argv, "--out", str(out)]) == 0
    exacts = json.loads(out.read_text(encoding="utf-8"))["verdicts"]
    for got, ref in zip(floats, exacts):
        assert (got["decided_by"], got["interval_bits"], got["mode"]) == ("interval", 100, "float")
        for key in ("verdict", "first_violation", "normalization", "matches_expected"):
            assert got[key] == ref[key]
        margin, bound = F(got["min_margin"]), F(ref["min_margin"])
        assert bound - bound / 10**48 < margin <= bound
