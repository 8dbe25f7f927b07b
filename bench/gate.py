"""Correctness gate: every operation is judged from its report or return value.

``check(cmd, result)`` returns the number of failed operations of one
command and the reasons.  ``result`` is the parsed JSON report of a CLI
command (plus ``rc`` and, for ``--csv`` commands, ``csv`` text) or the
dict a library check returned.  The expectations are the paper's claims:

* Heine Turanians are strictly negative, tilde Turanians strictly positive;
* the g family follows its chain case and vanishes when beta = 0;
* exact identities give exact zeros;
* float residuals and margins meet the acceptance tolerances;
* the spot value Delta_1 = -20/21 at q = 1/2, mu = alpha = beta = 1.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

SIGNS = {
    ("heine-f", None): {"all-strictly-neg"},
    ("heine-f-tilde", None): {"all-strictly-pos"},
    ("g", "b"): {"all-nonneg", "all-strictly-pos"},
    ("g", "a"): {"all-nonpos", "all-strictly-neg"},
}


def _mpf(text) -> mpmath.mpf:
    with mpmath.workdps(60):
        return mpmath.mpf(text)


def heine_reference(mu: str, x: str, q: str, digits: int = 60) -> mpmath.mpf:
    """2phi1(0, 0; q^mu; q, x) summed directly in mpmath, independent of qturan."""
    with mpmath.workdps(digits + 10):
        mu_v, x_v, q_v = (mpmath.mpf(Fraction(v).numerator) / Fraction(v).denominator
                          for v in (mu, x, q))
        a = q_v ** mu_v
        total = term = mpmath.mpf(1)
        n = 0
        while abs(term) > mpmath.mpf(10) ** (-digits - 10) * abs(total):
            term = term * x_v / ((1 - a * q_v ** n) * (1 - q_v ** (n + 1)))
            total += term
            n += 1
        return total


def _check_sign(expect: dict, report: dict) -> tuple[int, list[str]]:
    records = report.get("verdicts", [])
    got = [[r.get("mu"), r.get("alpha"), r.get("beta")] for r in records]
    if got != expect["points"]:
        return len(expect["points"]), [f"points {got} != {expect['points']}"]
    allowed = SIGNS[(expect["family"], expect["case"])]
    problems = []
    for rec, (_, _, beta) in zip(records, expect["points"]):
        if expect["family"] == "g" and rec.get("chain_case") != expect["case"]:
            problems.append(f"chain case {rec.get('chain_case')} != {expect['case']}")
        elif expect["family"] == "g" and beta == "0":
            if rec.get("verdict") != "zero":
                problems.append(f"beta=0 verdict {rec.get('verdict')}")
        elif rec.get("verdict") not in allowed or rec.get("matches_expected") is not True:
            problems.append(f"{rec.get('mu')},{rec.get('alpha')},{beta}: {rec.get('verdict')}")
    failed = len(problems)
    if "coeffs" in expect:
        margins = report.get("margins", [])
        rows = (report.get("csv") or "").splitlines()
        if [m.get("m") for m in margins] != list(range(expect["coeffs"])):
            problems.append(f"{len(margins)} coefficients, expected {expect['coeffs']}")
        elif len(rows) != expect["coeffs"] + 1:
            problems.append(f"csv has {len(rows)} lines, expected {expect['coeffs'] + 1}")
        spot = expect.get("spot")
        if spot and margins and margins[spot["m"]]["coefficient"] != spot["value"]:
            problems.append(f"spot {margins[spot['m']]['coefficient']} != {spot['value']}")
        if len(problems) > failed:      # a coefficient or spot problem fails the point
            failed = len(expect["points"])
    return failed, problems


def _check_one(expect: dict, result: dict) -> list[str]:
    kind = expect["kind"]
    if kind == "exact-zero":
        res = result.get("residuals", [{}])[0]
        ok = res.get("mode") == "exact" and res.get("exact_zero") is True
        return [] if ok else [f"residual {res.get('max_abs')} is not an exact zero"]
    if kind == "float-residual":
        rel = _mpf(result["residuals"][0]["max_rel"])
        return [] if rel < _mpf(expect["tol"]) else [f"max_rel {rel} >= {expect['tol']}"]
    if kind == "limit":
        decreasing = result.get("verdicts", [{}])[0].get("deviations_decreasing")
        ok = decreasing is True and len(result.get("residuals", [])) == 3
        return [] if ok else ["q -> 1 deviations do not decrease"]
    if kind == "eval":
        ref = heine_reference(expect["mu"], expect["x"], expect["q"])
        got = _mpf(result["verdicts"][0]["value"])
        with mpmath.workdps(60):
            rel = abs(got - ref) / abs(ref)
        return [] if rel < _mpf(expect["tol"]) else [f"eval off by {rel}"]
    if kind == "margin":
        ok = result["ok"] is True and _mpf(result["margin"]) > _mpf(expect["floor"])
        return [] if ok else [f"margin {result['margin']} (holds={result['ok']})"]
    if kind == "laplace":
        rel = _mpf(result["max_rel"])
        return [] if rel < _mpf(expect["tol"]) else [f"laplace max_rel {rel}"]
    raise ValueError(f"unknown expectation {kind!r}")


def check(cmd, result: dict) -> tuple[int, list[str]]:
    """Failed operations of one command, with the reasons."""
    expect = cmd.expect
    if expect["kind"] == "sign":
        failed, problems = _check_sign(expect, result)
    elif expect["kind"] == "holds":
        problems = [f"{name} fails" for name in ("cm", "mc") if result.get(name) is not True]
        failed = len(problems)
    else:
        problems = _check_one(expect, result)
        failed = cmd.ops if problems else 0
    if cmd.argv and result.get("rc") != 0 and not failed:
        failed = cmd.ops
        problems.append(f"exit code {result.get('rc')}")
    return failed, problems
