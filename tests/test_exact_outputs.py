"""Exact-mode outputs pinned by sha256 digest.

The digests were recorded while ``ExactScalar`` still held a + b sqrt(r) as
two Fractions; the integer representation must give the same text.  They
cover the canonical coefficient text of order-60 series in Q(sqrt 3/4)
(half-integer mu), one exact Turanian series, and the stdout, CSV and JSON
report of exact ``turanian``, ``scan`` and every exact ``verify`` identity.
"""

import contextlib
import hashlib
import io
from fractions import Fraction as F

from qturan.cli import run
from qturan.qcore import QBase
from qturan.series import g_series, heine_f_series, heine_f_tilde_series
from qturan.turanian import Family, TuranianSpec, turanian_series

CASE_B = dict(a=(F(2), F(3)), b=(F(1), F(2)))

COMMANDS = {
    "turanian": ["turanian", "--family", "heine-f-tilde", "--q", "3/4", "--mu", "1/2",
                 "--alpha", "1/2", "--beta", "1"],
    "scan": ["scan", "--family", "g", "--a", "2,3", "--b", "1,2", "--q", "3/4",
             "--mu-grid", "1/2:2:1/2", "--alpha-grid", "1", "--beta-grid", "1"],
    "linearization": ["verify", "--identity", "linearization", "--q", "3/4", "--mu", "1/2",
                      "--alpha", "2", "--beta", "1/2", "--order", "30"],
    "rahman": ["verify", "--identity", "rahman", "--q", "3/4", "--nu", "1/2",
               "--eta", "3/2", "--order", "25"],
    "finite-sum": ["verify", "--identity", "finite-sum", "--q", "3/4", "--nu", "1/2",
                   "--eta", "1", "--m", "12"],
    "kummer": ["verify", "--identity", "kummer", "--mu", "1/2", "--alpha", "2",
               "--beta", "1", "--order", "30"],
    "recqgamma": ["verify", "--identity", "recqgamma", "--q", "3/4", "--mu", "1/2",
                  "--beta", "3/2", "--m", "8"],
}

EXPECTED = {
    "heine": "291e8bd96167b158b9658f5c3e06dd69844cd28cc6eb78cd07fd87c7f17ee087",
    "tilde": "291e8bd96167b158b9658f5c3e06dd69844cd28cc6eb78cd07fd87c7f17ee087",
    "g": "ea322335a17f2e5ad9ec5fb28624612726440ec99f854c7a12806e13af4196c9",
    "turanian_series": "856bceaefe6af13c14d6dc14f9c909f0a0835ab2658854692db8c6282e4e7c50",
    "turanian": (0,
        "fe45f0c0a5fa264a969df11f9d786cb4b67a6725bc2601af4b64b5bcbf58355b",
        "07a2b345485b2d9ef73e8132ed52ae5164f369bcf5c4c9e1abb87125d2e1d46e",
        "443ea7a71844f756ddd5c774f16ea45a501bccdbeb526fab71db8770ebd30ed2"),
    "scan": (0,
        "273baa9748eaddd47cafd0de87b4f53e9c3843a3e71cdd36bc92f7b794f86827",
        "701b16e5487c7a868a9c4ea4eedcf644a3885a318a115e1ede6cbf7a46603c80",
        "a89137b90efe77f0a95615740184c3e24fbd9453c384207384951193801ec175"),
    "linearization": (0,
        "c62c2e9de8e4246db536d21e241e8285c8c237bb9b2f08d7f35410f54417506a",
        "ce0ad66d5d020c1974ebbaf2adec1d876a051af6bcff959ed888306d5bce5613",
        "5fdbcf0774a5baed0aad88d0d2dadc91bae0030cff8027f3219594618af59006"),
    "rahman": (0,
        "c4be352e66381b9c10f9626708006e54d8a3d6e49822c162f02bbcf3ddcc4f26",
        "f5523b14dd1b4f29797c411d7b0eeb1a3e333e1544d78c4b451e89daa893572e",
        "7cf68c518807455bdac6c132521d9b5535f65fbbcadf6b854fbbf0feb69b9457"),
    "finite-sum": (0,
        "2bd02f4d1abbd0ce38bc56296ce93ae1dfeca3c628d7839f6426e573b8540c80",
        "939a31cef2f8249fa6efd27c7d6caaa7f3f9c4570e676efb48f2861253602196",
        "6608d7f0a6ffbd537f4632cdb9506bf29f2445e41d2dd0e06d9a54011221c525"),
    "kummer": (0,
        "6e2fb94d380105f7e28831c9e721e283bbfa435de0b5b8dcfd5a368bcbbe26c6",
        "8a1ddc43c1cdbaa38bad38158cb2337d703136a8705c94430a752423ce40fb5c",
        "d7b1ce37d13df12ac04d720e6e362e624f652b1059b094fe96da9a1bf3f409ea"),
    "recqgamma": (0,
        "9f510c5283989fa4b19233548ee6a032ad80b233ce2b0f218047ef698339489c",
        "c98cc8dd3f3be88f9def33375cd964e0b6578135ee03ad4abcc40bc8c33d586e",
        "3dd2712d4f7da5ebc0ec7aa179ad61556d7a6845b31da062f48631b2ebd084b3"),
}


def _sha(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _series_text(series) -> str:
    return "\n".join(c.canonical() for c in series.coeffs)


def _digests(tmp_path) -> dict:
    q = QBase.exact(q=F(3, 4))
    out = {
        "heine": _sha(_series_text(heine_f_series(F(1, 2), q, 60))),
        # relative to 1/Gamma_q(mu), the tilde coefficients are Heine's
        "tilde": _sha(_series_text(heine_f_tilde_series(F(1, 2), q, 60))),
        "g": _sha(_series_text(g_series(CASE_B["a"], CASE_B["b"], F(1, 2), q, 60))),
        "turanian_series": _sha(_series_text(turanian_series(
            TuranianSpec(Family.G_NORMALIZED, F(1, 2), F(1), F(1), q, 40, **CASE_B)))),
    }
    for name, argv in COMMANDS.items():
        report, table = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = run([*argv, "--mode", "exact", "--out", str(report), "--csv", str(table)])
        out[name] = (code, _sha(sink.getvalue()), _sha(report.read_bytes()),
                     _sha(table.read_bytes()))
    return out


def test_exact_outputs_are_unchanged(tmp_path):
    assert _digests(tmp_path) == EXPECTED
