"""Command-line surface: evaluation, certification, verification, scans.

Reports are JSON with the fixed key set {config, verdicts, residuals,
margins, timing}; rationals are written as num/den strings (quadratic
values as a+b*sqrt(r)), and exact-mode reports are byte-for-byte
deterministic for a fixed config (timing is null there).  CSV output is
UTF-8 with LF line endings, one row per coefficient or per grid point
depending on the command.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath

from . import conditions, identities, turanian
from .qcore import QBase
from .scalar import (
    DEFAULT_DIGITS,
    ExactModeError,
    ExactScalar,
    FloatScalar,
    QTuranError,
    rational_text,
)
from .series import (
    g_series,
    heine_f_series,
    heine_f_tilde_series,
    kummer_1f1_unit_top,
    modified_qbessel_i1,
    qbessel_j1,
    qbessel_j2,
)
from .turanian import Family, TuranianSpec

ENV_DIGITS = "QTURAN_DIGITS"


def _default_digits() -> int:
    raw = os.environ.get(ENV_DIGITS)
    if raw is None:
        return DEFAULT_DIGITS
    try:
        digits = int(raw)
    except ValueError:
        digits = 0
    if digits < 10:
        raise QTuranError(f"{ENV_DIGITS} must be an integer >= 10, got {raw!r}")
    return digits


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise QTuranError(f"cannot parse rational {text!r}: {exc}") from exc


def _required_rational(args, name: str, context: str) -> Fraction:
    """The rational value of option --name, which context needs."""
    text = getattr(args, name)
    if text is None:
        raise QTuranError(f"--{name} is required for {context}")
    return parse_rational(text)


def parse_grid(text: str) -> list[Fraction]:
    """'start:stop:step' inclusive of endpoints within step/2, or one value."""
    if ":" not in text:
        return [parse_rational(text)]
    parts = text.split(":")
    if len(parts) != 3:
        raise QTuranError(f"grid syntax is start:stop:step, got {text!r}")
    start, stop, step = (parse_rational(p) for p in parts)
    if step <= 0:
        raise QTuranError("grid step must be positive")
    out = []
    cur = start
    while cur <= stop + step / 2:
        out.append(cur)
        cur += step
    if not out:
        raise QTuranError(f"grid {text!r} is empty")
    return out


def parse_vector(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(v) for v in text.split(",") if v)


def make_qbase(args) -> QBase:
    if args.q is not None and args.p is not None:
        raise QTuranError("give the base via --q or --p, not both")
    if args.p is not None:
        p = parse_rational(args.p)
        return QBase.exact(p=p) if args.mode == "exact" else QBase.floating(p * p, args.digits)
    if args.q is None:
        raise QTuranError("give the base via --q or --p")
    qv = parse_rational(args.q)
    return QBase.exact(q=qv) if args.mode == "exact" else QBase.floating(qv, args.digits)


def _q_text(args) -> str:
    """The base q of a run: the --q text as given, or p^2 for --p."""
    if args.p is None:
        return args.q
    return rational_text(parse_rational(args.p) ** 2)


def scalar_text(value) -> str:
    if isinstance(value, ExactScalar):
        return value.canonical()
    if isinstance(value, FloatScalar):
        return mpmath.nstr(value.val, value.digits)
    if isinstance(value, Fraction):
        return rational_text(value)
    return str(value)


def report_verdict(rep: turanian.SignReport, point: dict) -> dict:
    rec = dict(point)
    rec.update({
        "kind": "sign-certificate",
        "verdict": rep.verdict.value,
        "expected": rep.expected.value if rep.expected else None,
        "matches_expected": rep.matches_expected,
        "first_violation": rep.first_violation,
        "min_margin": scalar_text(rep.min_margin) if rep.min_margin is not None else None,
        "coeff0": scalar_text(rep.coeff0) if rep.coeff0 is not None else None,
        "order_checked": rep.order_checked,
        "normalization": rep.normalization,
        "chain_case": rep.chain_case,
        "mode": rep.mode,
        "decided_by": rep.decided_by,
        "exact_fallbacks": rep.exact_fallbacks,
    })
    return rec


def report_residual(res: identities.Residual, point: dict) -> dict:
    rec = dict(point)
    rec.update({
        "kind": "residual",
        "label": res.label,
        "mode": res.mode,
        "exact_zero": res.exact_zero,
        "max_abs": scalar_text(res.max_abs),
        "max_rel": scalar_text(res.max_rel),
        "order_checked": res.order_checked,
        "note": res.note,
    })
    return rec


@contextmanager
def _file(path: str, mode: str, **kwargs):
    """open(path, mode) in UTF-8, with an OSError while opening, reading or
    writing it turned into a QTuranError that names the path."""
    try:
        with open(path, mode, encoding="utf-8", **kwargs) as fh:
            yield fh
    except OSError as exc:
        verb = "read" if mode == "r" else "write"
        raise QTuranError(f"cannot {verb} {path}: {exc.strerror or exc}") from exc


def write_report(path: str | None, config: dict, verdicts, residuals, margins,
                 timing) -> dict:
    report = {
        "config": config,
        "verdicts": verdicts,
        "residuals": residuals,
        "margins": margins,
        "timing": timing,
    }
    if path:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        with _file(path, "w", newline="\n") as fh:
            fh.write(text)
    return report


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with _file(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _config_common(args, extra: dict) -> dict:
    cfg = {
        "command": args.command,
        "mode": args.mode,
        "digits": args.digits if args.mode == "float" else None,
        "q": getattr(args, "q", None),
        "p": getattr(args, "p", None),
        "order": getattr(args, "order", None),
    }
    cfg.update(extra)
    return cfg


def _refuse_base(args, subject: str, *, exact: bool, verb: str = "checked") -> None:
    """Refuse the options that a computation without a base q would ignore:
    --q and --p, and --mode float or --digits when it is exact, or a typed
    --mode exact when it runs in float mode."""
    for name in ("q", "p"):
        if getattr(args, name) is not None:
            raise QTuranError(f"--{name} does not apply to {subject}")
    if exact:
        refused = ("--mode float" if args.mode == "float"
                   else "--digits" if "digits" in args.given else None)
        kind = f"is {verb} exactly"
    else:
        refused = "--mode exact" if "mode" in args.given and args.mode == "exact" else None
        kind = "runs in float mode"
    if refused:
        raise QTuranError(f"{subject} {kind}; {refused} does not apply")


# -- subcommand implementations ----------------------------------------------


def cmd_eval(args) -> int:
    needs_x = args.family in ("heine-f", "heine-f-tilde", "g", "kummer")
    if needs_x and args.x is None:
        raise QTuranError(f"--x is required for family {args.family}")
    if not needs_x and args.y is None:
        raise QTuranError(f"--y is required for family {args.family}")
    if args.mode == "exact" and args.family in ("heine-f-tilde", "g"):
        raise ExactModeError(
            f"family {args.family} carries a Gamma_q prefactor that has no exact "
            f"value; use --mode float"
        )
    if args.family == "kummer":
        _refuse_base(args, "--family kummer", exact=True, verb="evaluated")
        if args.b_param is None:
            raise QTuranError("--b-param is required for the kummer family")
        value = kummer_1f1_unit_top(parse_rational(args.b_param), args.order).eval(
            ExactScalar.from_rational(parse_rational(args.x)))
        verdicts = [{"kind": "eval", "family": args.family, "x": args.x,
                     "b": args.b_param, "value": scalar_text(value)}]
        write_report(args.out, _config_common(args, {"family": args.family}),
                     verdicts, [], [], None)
        print(scalar_text(value))
        return 0
    q = make_qbase(args)
    started = time.monotonic()

    def need(name):
        return _required_rational(args, name, f"family {args.family}")

    x = parse_rational(args.x) if args.x is not None else None
    point = {"family": args.family, "mu": args.mu, "x": args.x, "y": args.y}
    if args.family == "heine-f":
        value = heine_f_series(need("mu"), q, args.order).eval(q.scalar(x))
    elif args.family == "heine-f-tilde":
        value = heine_f_tilde_series(need("mu"), q, args.order,
                                     absolute=True).eval(q.scalar(x))
    elif args.family == "g":
        if args.a is None or args.b is None:
            raise QTuranError("--a and --b are required for family g")
        value = g_series(parse_vector(args.a), parse_vector(args.b),
                         need("mu"), q, args.order, absolute=True).eval(q.scalar(x))
    elif args.family == "qbessel-j1":
        value = qbessel_j1(need("alpha"), parse_rational(args.y), q, args.order)
    elif args.family == "qbessel-j2":
        value = qbessel_j2(need("alpha"), parse_rational(args.y), q, args.order)
    elif args.family == "qbessel-i1":
        value = modified_qbessel_i1(need("nu"), parse_rational(args.y), q, args.order)
    else:
        raise QTuranError(f"unknown eval family {args.family!r}")
    timing = None if args.mode == "exact" else time.monotonic() - started
    verdicts = [{"kind": "eval", "value": scalar_text(value), **point}]
    cfg = _config_common(args, {"family": args.family})
    write_report(args.out, cfg, verdicts, [], [], timing)
    print(scalar_text(value))
    return 0


def _turanian_spec(args, q, mu, alpha, beta) -> TuranianSpec:
    if args.family != "g":
        for name in ("a", "b"):
            if getattr(args, name) is not None:
                raise QTuranError(f"--{name} does not apply to --family {args.family}")
    a = parse_vector(args.a) if args.a else ()
    b = parse_vector(args.b) if args.b else ()
    return TuranianSpec(Family(args.family), mu, alpha, beta, q, args.order, a, b)


def cmd_turanian(args) -> int:
    q = make_qbase(args)
    started = time.monotonic()
    spec = _turanian_spec(args, q, parse_rational(args.mu),
                          parse_rational(args.alpha), parse_rational(args.beta))
    rep = turanian.sign_certificate(spec)
    point = {"family": args.family, "mu": args.mu, "alpha": args.alpha,
             "beta": args.beta, "q": _q_text(args)}
    verdicts = [report_verdict(rep, point)]
    margins = []
    csv_rows = []
    emit_coeffs = not (spec.family == Family.HEINE_F_TILDE and q.is_exact)
    if emit_coeffs:
        series = turanian.turanian_series(spec)
        for m, c in enumerate(series.coeffs):
            margins.append({"m": m, "coefficient": scalar_text(c)})
            csv_rows.append([args.family, args.mu, args.alpha, args.beta,
                             point["q"], m, scalar_text(c)])
    timing = None if q.is_exact else time.monotonic() - started
    cfg = _config_common(args, {"family": args.family, "mu": args.mu,
                                "alpha": args.alpha, "beta": args.beta,
                                "a": args.a, "b": args.b})
    write_report(args.out, cfg, verdicts, [], margins, timing)
    if args.csv:
        write_csv(args.csv,
                  ["family", "mu", "alpha", "beta", "q", "m", "coefficient"],
                  csv_rows)
    ok = rep.matches_expected is not False
    print(f"{args.family}: {rep.verdict.value}"
          + (f" (expected {rep.expected.value})" if rep.expected else ""))
    return 0 if ok else 1


def cmd_conditions(args) -> int:
    q = make_qbase(args)
    started = time.monotonic()
    a = parse_vector(args.a)
    b = parse_vector(args.b)
    c, d = conditions.derive_cd(a, b, q)
    verdict = conditions.majorization_sufficiency(c, d)
    rec = {
        "kind": "chain-verdict",
        "a": [str(v) for v in a],
        "b": [str(v) for v in b],
        "c": [scalar_text(v) for v in c],
        "d": [scalar_text(v) for v in d],
        "applies_case_a": verdict.applies_case_a,
        "applies_case_b": verdict.applies_case_b,
        "via_majorization": verdict.via_majorization,
        "witness_subvector": list(verdict.witness_subvector)
        if verdict.witness_subvector else None,
    }
    cfg = _config_common(args, {"a": args.a, "b": args.b})
    timing = None if q.is_exact else time.monotonic() - started
    write_report(args.out, cfg, [rec], [], [], timing)
    case = conditions.chain_case(c, d)
    print(f"chain case: {case or 'none'}; majorization witness: "
          f"{verdict.via_majorization}")
    return 0 if case else 1


def cmd_verify(args) -> int:
    started = time.monotonic()
    try:
        tol = mpmath.mpf(args.tol)
    except ValueError:
        raise QTuranError(f"--tol must be a number, got {args.tol!r}") from None

    def need(name):
        return _required_rational(args, name, f"--identity {args.identity}")

    if args.identity in ("q-to-1", "kummer"):
        # the q -> 1 study sets its own bases, and Kummer's identity has none
        _refuse_base(args, f"--identity {args.identity}", exact=args.identity == "kummer")
    extra = {"identity": args.identity, "tol": args.tol}
    verdicts = []
    if args.identity == "q-to-1":
        seq = [s for s in (args.q_sequence or "0.9,0.99,0.999").split(",") if s]
        for text in seq:
            parse_rational(text)
        results = identities.q_to_1_limit_study(
            need("mu"), need("alpha"), need("beta"), need("x"), seq, digits=args.digits)
        deviations = [r.max_abs.val for r in results]
        ok = all(b < a for a, b in zip(deviations, deviations[1:]))
        extra = {"identity": args.identity, "q_sequence": seq, "x": args.x,
                 "mode": "float", "digits": args.digits}
        verdicts = [{"kind": "limit-study", "deviations_decreasing": ok}]
        message = f"q->1 deviations decreasing: {ok}"
    else:
        coeff_order = args.order if args.order is not None else 30
        if args.identity == "kummer":
            res = identities.verify_kummer_linearization(
                need("mu"), need("alpha"), need("beta"), coeff_order)
        else:
            q = make_qbase(args)
            if args.identity == "rahman":
                res = identities.verify_rahman_product(
                    need("nu"), need("eta"), q, coeff_order)
            elif args.identity == "finite-sum":
                res = identities.verify_finite_sum_identity(
                    need("nu"), need("eta"), q, args.m)
            elif args.identity == "connection":
                # default None lets the verifier size the series from the tail bound
                res = identities.verify_connection_formula(
                    need("alpha"), need("y"), q, args.order)
            elif args.identity == "linearization":
                res = identities.verify_linearization(
                    need("mu"), need("alpha"), need("beta"), q, coeff_order)
            elif args.identity == "recqgamma":
                res = identities.verify_recqgamma(
                    need("mu"), need("beta"), q, args.m)
            else:
                raise QTuranError(f"unknown identity {args.identity!r}")
        results = [res]
        extra["order"] = res.order_checked
        ok = res.exact_zero if res.mode == "exact" else res.max_rel.val < tol
        status = "exact-zero" if res.exact_zero else f"max_rel={scalar_text(res.max_rel)}"
        message = f"{args.identity}: {status} -> {'ok' if ok else 'FAIL'}"
    residuals = [report_residual(r, {"identity": args.identity}) for r in results]
    exact = all(r.mode == "exact" for r in results)
    timing = None if exact else time.monotonic() - started
    write_report(args.out, _config_common(args, extra), verdicts, residuals, [], timing)
    if args.csv:
        rows = [[r["identity"], r["label"], r["mode"], r["exact_zero"],
                 r["max_abs"], r["max_rel"], r["order_checked"]]
                for r in residuals]
        write_csv(args.csv, ["identity", "label", "mode", "exact_zero",
                             "max_abs", "max_rel", "order_checked"], rows)
    print(message)
    return 0 if ok else 1


def cmd_scan(args) -> int:
    q = make_qbase(args)
    started = time.monotonic()
    mu_grid = parse_grid(args.mu_grid)
    alpha_grid = parse_grid(args.alpha_grid)
    beta_grid = parse_grid(args.beta_grid)
    points = [(mu, al, be) for mu in mu_grid for al in alpha_grid
              for be in beta_grid]

    reports = [turanian.sign_certificate(_turanian_spec(args, q, mu, al, be))
               for mu, al, be in points]

    verdicts = []
    rows = []
    all_ok = True
    q_text = _q_text(args)
    for (mu, al, be), rep in zip(points, reports):
        point = {"family": args.family, "mu": str(mu), "alpha": str(al),
                 "beta": str(be), "q": q_text}
        verdicts.append(report_verdict(rep, point))
        rows.append([args.family, str(mu), str(al), str(be), q_text,
                     rep.verdict.value,
                     rep.expected.value if rep.expected else "",
                     rep.matches_expected,
                     scalar_text(rep.min_margin) if rep.min_margin is not None else "",
                     rep.first_violation if rep.first_violation is not None else ""])
        if rep.matches_expected is False:
            all_ok = False
    timing = None if q.is_exact else time.monotonic() - started
    cfg = _config_common(args, {"family": args.family, "mu_grid": args.mu_grid,
                                "alpha_grid": args.alpha_grid,
                                "beta_grid": args.beta_grid,
                                "a": args.a, "b": args.b})
    write_report(args.out, cfg, verdicts, [], [], timing)
    if args.csv:
        write_csv(args.csv,
                  ["family", "mu", "alpha", "beta", "q", "verdict", "expected",
                   "matches_expected", "min_margin", "first_violation"], rows)
    n_ok = sum(1 for r in reports if r.matches_expected is not False)
    print(f"scan: {n_ok}/{len(reports)} points match the predicted direction")
    return 0 if all_ok else 1


def cmd_report(args) -> int:
    with _file(args.input, "r") as fh:
        try:
            report = json.load(fh)
        except ValueError as exc:       # JSONDecodeError or UnicodeDecodeError
            raise QTuranError(f"{args.input} is not a JSON report: {exc}") from exc
    if not (isinstance(report, dict)
            and all(isinstance(report.get(key), list)
                    and all(isinstance(rec, dict) for rec in report[key])
                    for key in ("verdicts", "residuals"))):
        raise QTuranError(f"{args.input} is not a qturan report: it needs "
                          f"'verdicts' and 'residuals' lists of records")
    rows = []
    for rec in report["verdicts"]:
        rows.append(["verdict", rec.get("family", rec.get("kind", "")),
                     rec.get("mu", ""), rec.get("alpha", ""), rec.get("beta", ""),
                     rec.get("q", ""), rec.get("verdict", rec.get("value", "")),
                     rec.get("matches_expected", "")])
    for rec in report["residuals"]:
        rows.append(["residual", rec.get("label", ""), "", "", "",
                     rec.get("mode", ""), rec.get("max_rel", ""),
                     rec.get("exact_zero", "")])
    write_csv(args.csv, ["kind", "name", "mu", "alpha", "beta", "q",
                         "value", "ok"], rows)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


# -- argument wiring ----------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--q", help="base q as a rational, e.g. 1/2")
    sub.add_argument("--p", help="half-power base p (q = p^2), guarantees the half grid")
    sub.add_argument("--mode", choices=["exact", "float"],
                     help="arithmetic mode (default exact)")
    sub.add_argument("--digits", type=int,
                     help=f"float precision in digits (default: env {ENV_DIGITS}, "
                          f"then {DEFAULT_DIGITS})")
    sub.add_argument("--out", help="write the JSON report here")


def _add_order(sub, default: int | None):
    sub.add_argument("--order", type=int, default=default, help="truncation order M")


def _add_csv(sub):
    sub.add_argument("--csv", help="write a flat CSV table here")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qturan argument parser, built once per process: parsing leaves it
    unchanged, and every run parses its argv afresh into a new namespace."""
    parser = argparse.ArgumentParser(
        prog="qturan",
        description="q-hypergeometric Turanian certification and identity checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate a series family at a point")
    p_eval.add_argument("--family", required=True,
                        choices=["heine-f", "heine-f-tilde", "g", "qbessel-j1",
                                 "qbessel-j2", "qbessel-i1", "kummer"])
    p_eval.add_argument("--mu")
    p_eval.add_argument("--nu")
    p_eval.add_argument("--alpha")
    p_eval.add_argument("--a", help="comma-separated upper exponents")
    p_eval.add_argument("--b", help="comma-separated lower exponents")
    p_eval.add_argument("--b-param", help="bottom parameter of 1F1")
    p_eval.add_argument("--x")
    p_eval.add_argument("--y")
    _add_common(p_eval)
    _add_order(p_eval, 100)
    p_eval.set_defaults(fn=cmd_eval)

    p_tur = subs.add_parser("turanian", help="certify one Turanian sign point")
    p_tur.add_argument("--family", required=True,
                       choices=["heine-f", "heine-f-tilde", "g"])
    p_tur.add_argument("--mu", required=True)
    p_tur.add_argument("--alpha", required=True)
    p_tur.add_argument("--beta", required=True)
    p_tur.add_argument("--a")
    p_tur.add_argument("--b")
    _add_common(p_tur)
    _add_order(p_tur, 60)
    _add_csv(p_tur)
    p_tur.set_defaults(fn=cmd_turanian)

    p_cond = subs.add_parser("conditions", help="chain conditions and majorization")
    p_cond.add_argument("--a", required=True)
    p_cond.add_argument("--b", required=True)
    _add_common(p_cond)
    p_cond.set_defaults(fn=cmd_conditions)

    p_ver = subs.add_parser("verify", help="verify one identity")
    p_ver.add_argument("--identity", required=True,
                       choices=["rahman", "finite-sum", "connection",
                                "linearization", "kummer", "recqgamma", "q-to-1"])
    p_ver.add_argument("--nu")
    p_ver.add_argument("--eta")
    p_ver.add_argument("--mu")
    p_ver.add_argument("--alpha")
    p_ver.add_argument("--beta")
    p_ver.add_argument("--x")
    p_ver.add_argument("--y")
    p_ver.add_argument("--m", type=int, default=10)
    p_ver.add_argument("--tol", default="1e-30",
                       help="float-mode relative tolerance")
    p_ver.add_argument("--q-sequence", help="comma-separated q values for q-to-1")
    _add_common(p_ver)
    _add_order(p_ver, None)
    _add_csv(p_ver)
    p_ver.set_defaults(fn=cmd_verify)

    p_scan = subs.add_parser("scan", help="sweep certificates over parameter grids")
    p_scan.add_argument("--family", required=True,
                        choices=["heine-f", "heine-f-tilde", "g"])
    p_scan.add_argument("--mu-grid", required=True, help="value or start:stop:step")
    p_scan.add_argument("--alpha-grid", "--alpha", default="1")
    p_scan.add_argument("--beta-grid", "--beta", default="1")
    p_scan.add_argument("--a")
    p_scan.add_argument("--b")
    _add_common(p_scan)
    _add_order(p_scan, 60)
    _add_csv(p_scan)
    p_scan.set_defaults(fn=cmd_scan)

    p_rep = subs.add_parser("report", help="flatten a JSON report to CSV")
    p_rep.add_argument("--input", required=True)
    p_rep.add_argument("--csv", required=True)
    p_rep.set_defaults(fn=cmd_report)

    return parser


def _resolve_precision(args) -> None:
    """Fill in --mode (exact) and --digits (env QTURAN_DIGITS, then 50) where
    they were not given; ``args.given`` keeps the names that were typed."""
    args.given = {name for name in ("mode", "digits")
                  if getattr(args, name, None) is not None}
    if "mode" in vars(args) and args.mode is None:
        args.mode = "exact"
    if "digits" in vars(args) and args.digits is None:
        args.digits = _default_digits()


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, low in (("order", 0), ("m", 0), ("digits", 10)):
            value = getattr(args, name, None)
            if value is not None and value < low:
                raise QTuranError(f"--{name} must be an integer >= {low}, got {value}")
        _resolve_precision(args)
        return args.fn(args)
    except QTuranError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
