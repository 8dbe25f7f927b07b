"""Float-mode outputs pinned bit for bit.

Every float operation rounds at its operands' digits, so the pins hold at
mpmath's default global precision (15 digits, the one a fresh ``qturan``
process runs at) and at a wider one alike.
"""

import contextlib
import io
from enum import Enum
from fractions import Fraction as F

import mpmath
import pytest

from qturan import analysis
from qturan.cli import run
from qturan.conditions import derive_cd, rts_monotonicity_probe
from qturan.identities import (
    Residual,
    q_to_1_limit_study,
    verify_connection_formula,
    verify_finite_sum_identity,
    verify_linearization,
    verify_rahman_product,
    verify_recqgamma,
)
from qturan.qcore import QBase, qgamma, qpochhammer_infinite
from qturan.scalar import FloatScalar, fl
from qturan.series import (
    g_series,
    heine_f_tilde_series,
    kummer_1f1_value,
    modified_qbessel_i1,
    qbessel_j1,
    qbessel_j2,
)
from qturan.turanian import (
    Family,
    SignReport,
    TuranianSpec,
    delta_sign_certificate,
    delta_tilde_sign_certificate,
    gamma_sign_certificate,
    logconcavity_grid_check,
    turan_point_inequality,
    turanian_series,
)

CASE_B = dict(a=(F(2), F(3)), b=(F(1), F(2)))


@pytest.mark.parametrize("global_dps", [15, 60])
def test_float_outputs_are_unchanged(global_dps):
    with mpmath.workdps(global_dps):
        q = QBase.floating(F(1, 2), 50)
        certificates = {
            "heine": delta_sign_certificate(
                TuranianSpec(Family.HEINE_F, F(1), F(1), F(2), q, 60)),
            "tilde": delta_tilde_sign_certificate(
                TuranianSpec(Family.HEINE_F_TILDE, F(1), F(1), F(2), q, 60)),
            "g": gamma_sign_certificate(
                TuranianSpec(Family.G_NORMALIZED, F(1, 2), F(1), F(1), q, 60, **CASE_B)),
        }
        got = {name: (rep.verdict.value, rep.min_margin.val._mpf_, rep.coeff0.val._mpf_)
               for name, rep in certificates.items()}
        ok, margin = turan_point_inequality(Family.G_NORMALIZED, F(1), F(1, 2), q, "direct",
                                            **CASE_B)
        spec = TuranianSpec(Family.G_NORMALIZED, F(1), F(1), F(2), QBase.exact(q=F(1, 2)), 40,
                            **CASE_B)
        md = analysis.measure_from_series(turanian_series(spec).to_float(50))
        laplace = analysis.laplace_representation_check(md, [F(3, 10)], digits=50,
                                                        upper_limit=80).max_rel
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["eval", "--family", "heine-f", "--mu", "1/2", "--x", "1/2", "--q",
                        "1/2", "--mode", "float", "--order", "1200"])

    # decided on intervals over q = 1/2: min_margin is the certificate's lower
    # bound cut toward 0 at 50 digits, coeff0 the exact head (tilde: scaled
    # by Gamma_q(mu+alpha) Gamma_q(mu+beta)) rounded to 50 digits
    assert got == {
        "heine": ("all-strictly-neg",
                  (0, 55230842827895455042211632535009570205277075013629, -165, 166),
                  (0, 0, 0, 0)),
        "tilde": ("all-strictly-pos",
                  (0, 16925580866613123319387435776878003427375430238207, -163, 164),
                  (0, 320695216420038126051551414721744388313073198001591, -169, 168)),
        "g": ("all-strictly-pos",
              (0, 332326894392222147403162449542936042600044144099327, -1124, 168),
              (0, 525790124197152361873014754882279552034168871450575, -170, 169)),
    }
    assert ok and margin.val._mpf_ == (
        0, 69047904341767537801889515132712572598926767410671, -167, 166)
    # rounding-level (2.7e-66 at 65 working digits): these bits are those of rho
    assert laplace.digits == 65
    assert laplace.val._mpf_ == (
        0, 487901263372532045649903529088468243554893881240893876751970300745, -436, 219)
    assert code == 0
    assert out.getvalue() == "13.393655780531142991219293975103326815707696924285\n"


def _bits(value):
    """The raw bits and verdicts of a float output, recursively."""
    if isinstance(value, FloatScalar):
        return value.digits, value.val._mpf_
    if isinstance(value, SignReport):
        return (value.verdict.value, _bits(value.min_margin), _bits(value.coeff0),
                value.first_violation, value.decided_by, value.matches_expected)
    if isinstance(value, Residual):
        return (_bits(value.max_abs), _bits(value.max_rel), value.order_checked,
                value.exact_zero, value.note)
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, Enum):
        return value.value
    return value


def _public_float_outputs():
    q = QBase.floating(F(1, 2), 50)
    case_a = dict(a=(F(1),) * 3, b=(F(2), F(2)))

    def spec(family, mu, alpha, beta, order=30, **vectors):
        return TuranianSpec(family, mu, alpha, beta, q, order, **vectors)

    g_b = turanian_series(spec(Family.G_NORMALIZED, F(1), F(1), F(2), 20, **CASE_B))
    grid = [fl(F(20 + k, 20), 50) for k in range(9)]
    c, d = derive_cd((F(1), F(1), F(1)), (F(2), F(2)), q)
    return {
        "heine": delta_sign_certificate(spec(Family.HEINE_F, F(1), F(1), F(2))),
        "tilde": delta_tilde_sign_certificate(spec(Family.HEINE_F_TILDE, F(1), F(1), F(2))),
        "g-b": gamma_sign_certificate(spec(Family.G_NORMALIZED, F(1, 2), F(1), F(1), **CASE_B)),
        "g-a": gamma_sign_certificate(spec(Family.G_NORMALIZED, F(1, 2), F(1), F(1), **case_a)),
        "point": turan_point_inequality(Family.G_NORMALIZED, F(1), F(1, 2), q, "direct",
                                        **CASE_B),
        "grid-heine": logconcavity_grid_check(Family.HEINE_F, [F(1), F(3, 2), F(2)],
                                              F(1, 2), q),
        "grid-tilde": logconcavity_grid_check(Family.HEINE_F_TILDE, [F(1), F(3, 2), F(2)],
                                              F(1, 2), q),
        "connection": verify_connection_formula(F(0), F(1), q),
        "q-to-1": q_to_1_limit_study(F(3, 2), 2, F(1, 2), F(1, 4), ["0.9", "0.99"]),
        "rahman": verify_rahman_product(F(1, 4), F(3, 4), q, 20),
        "finite-sum": verify_finite_sum_identity(F(1, 4), F(3, 4), q, 8),
        "linearization": verify_linearization(F(1), 2, F(1), q, 20),
        "recqgamma": verify_recqgamma(F(1), F(1, 2), q, 4),
        "j1": qbessel_j1(F(1, 2), F(1), q, 40),
        "j2": qbessel_j2(F(1, 2), F(1), q, 40),
        "i1": modified_qbessel_i1(F(1, 2), F(1), q, 40),
        "qgamma": qgamma(F(3, 2), q),
        "qpoch-inf": qpochhammer_infinite(F(1, 3), q),
        "tilde-absolute": heine_f_tilde_series(F(3, 2), q, 40, absolute=True).eval(fl(F(1, 2))),
        "g-absolute": g_series(*CASE_B.values(), F(3, 2), q, 40, absolute=True).eval(fl(F(1, 2))),
        "kummer": kummer_1f1_value(F(3, 2), fl(F(1, 4)), 50),
        "cm": analysis.complete_monotonicity_check(lambda y: g_b.eval(1 / y), grid, 4),
        "mc": analysis.multiplicative_convexity_check(g_b.eval, list(zip(grid, grid[::-1]))),
        "laplace": analysis.laplace_representation_check(
            analysis.measure_from_series(g_b), [F(3, 10)], digits=50, upper_limit=80),
        "rts": rts_monotonicity_probe(c, d, grid),
    }


def test_global_precision_changes_no_float_output():
    outputs = {}
    for dps in (15, 60, 120):
        with mpmath.workdps(dps):
            outputs[dps] = {name: _bits(v) for name, v in _public_float_outputs().items()}
    differing = sorted(name for name in outputs[15]
                       if not outputs[15][name] == outputs[60][name] == outputs[120][name])
    assert differing == []


def test_q_to_1_study_keeps_its_bits():
    """The pointwise sides of the linearization keep their scalar arithmetic
    (a term w (a b) or w a, each difference formed, the differences added
    left to right): the q -> 1 study's residuals are pinned bit for bit."""
    got = [_bits(r) for r in q_to_1_limit_study(F(3, 2), 2, F(1, 2), F(1, 4), ["0.9", "0.99"])]
    assert got == [
        ((50, (0, 100339849315315236562974926727435681697794271944161, -167, 167)),
         (50, (0, 309035800866936376694070261208529880890147698343253, -170, 168)),
         2, False, None),
        ((50, (0, 668991476991644975973958510424885031096551935157, -163, 159)),
         (50, (0, 527467735686844649408308022320467029245878404031859, -174, 169)),
         2, False, None),
    ]
