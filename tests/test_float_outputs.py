"""Float-mode outputs pinned bit for bit.

The values were recorded before float arithmetic moved onto raw
``mpmath.libmp`` calls, which must leave every bit unchanged.  They are
computed at mpmath's default working precision (15 digits), the one a fresh
``qturan`` process runs at: unary ``-`` and ``abs`` of a FloatScalar round
at the precision in effect, which shows in the Heine ``min_margin``.
"""

import contextlib
import io
from fractions import Fraction as F

import mpmath

from qturan import analysis
from qturan.cli import run
from qturan.qcore import QBase
from qturan.turanian import (
    Family,
    TuranianSpec,
    delta_sign_certificate,
    delta_tilde_sign_certificate,
    gamma_sign_certificate,
    turan_point_inequality,
    turanian_series,
)

CASE_B = dict(a=(F(2), F(3)), b=(F(1), F(2)))


def test_float_outputs_are_unchanged():
    with mpmath.workdps(15):
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

    assert got == {
        "heine": ("all-strictly-neg", (0, 5318536702799443, -52, 53), (0, 0, 0, 0)),
        "tilde": ("all-strictly-pos",
                  (0, 90269764621936657703399657477231753747383566844893, -166, 166),
                  (0, 213796810946692084034367609814496258875382132001061, -169, 168)),
        "g": ("all-strictly-pos",
              (0, 19343971181208160011934472142845494007013, -1090, 134),
              (0, 131447531049288090468253688720569888008542217862645, -168, 167)),
    }
    assert ok and margin.val._mpf_ == (
        0, 69047904341767537801889515132712572598926767410671, -167, 166)
    # rounding-level (2.7e-66 at 65 working digits): these bits are those of rho
    assert laplace.digits == 65
    assert laplace.val._mpf_ == (
        0, 487901263372532014378092097572798608264061857670155898161292605055, -436, 219)
    assert code == 0
    assert out.getvalue() == "13.393655780531142991219293975103326815707696924285\n"
