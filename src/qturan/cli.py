"""Command-line surface: evaluation, certification, verification, scans.

Each subcommand computes and returns what it found (a ``_Found``); ``run``
alone times it, writes the JSON report and the CSV, prints the message and
turns the verdict into the exit code.  Reports are JSON with the fixed key
set {config, verdicts, residuals, margins, timing}; rationals are written as
num/den strings (quadratic values as a+b*sqrt(r)), and exact-mode reports
are byte-for-byte deterministic for a fixed config: timing is null exactly
when the run is exact.  CSV output is UTF-8 with LF line endings; each row
is the header's fields of one record (a coefficient margin with its point,
a scan verdict, or a residual), with None written as an empty field.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath

from . import conditions, identities, turanian
from .qcore import QBase
from .scalar import (
    DEFAULT_DIGITS,
    ExactScalar,
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
    return mpmath.nstr(value.val, value.digits)


def report_verdict(rep: turanian.SignReport, point: dict) -> dict:
    rec = dict(point)
    rec.update({
        "kind": "sign-certificate",
        "verdict": rep.verdict.value,
        "expected": rep.expected.value,
        "matches_expected": rep.matches_expected,
        "first_violation": rep.first_violation,
        "min_margin": scalar_text(rep.min_margin) if rep.min_margin is not None else None,
        "coeff0": scalar_text(rep.coeff0) if rep.coeff0 is not None else None,
        "order_checked": rep.order_checked,
        "normalization": rep.normalization,
        "chain_case": rep.chain_case,
        "mode": rep.mode,
        "decided_by": rep.decided_by,
        "interval_bits": rep.interval_bits,
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
                 timing) -> None:
    if path:
        report = {"config": config, "verdicts": verdicts, "residuals": residuals,
                  "margins": margins, "timing": timing}
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        with _file(path, "w", newline="\n") as fh:
            fh.write(text)


def write_csv(path: str, header, rows: list[list]) -> None:
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


# -- which options each selection reads ----------------------------------------


class _Reads(NamedTuple):
    """What one --family or --identity reads beyond its subcommand's options:
    the required options, the optional ones with their defaults (--q and
    --p where it has a base q), run(args, q, *required values), and for a
    selection that runs in one mode only, (that mode, what it does)."""

    required: tuple
    optional: dict
    run: Callable | None = None
    only: tuple[str, str] | None = None

    def names(self) -> tuple:
        return (*self.required, *self.optional)

    def compute(self, args):
        q = make_qbase(args) if "q" in self.optional else None
        return self.run(args, q, *((parse_vector if name in ("a", "b") else parse_rational)(
            getattr(args, name)) for name in self.required))


_BASE = {"q": None, "p": None}
_GAMMA_Q = ("float", "carries a Gamma_q prefactor that has no exact value; use --mode float")
_INFINITE = ("float", "evaluates infinite products; use --mode float")
# --tol is read in float mode only (an exact run refuses it), but the report
# of every coefficient identity records it
_TOL = {"tol": "1e-30"}

_EVAL = {
    "heine-f": _Reads(("mu", "x"), _BASE, lambda a, q, mu, x:
                      heine_f_series(mu, q, a.order).eval(q.scalar(x))),
    "heine-f-tilde": _Reads(("mu", "x"), _BASE, lambda a, q, mu, x: heine_f_tilde_series(
        mu, q, a.order, absolute=True).eval(q.scalar(x)), _GAMMA_Q),
    "g": _Reads(("a", "b", "mu", "x"), _BASE, lambda a, q, up, low, mu, x: g_series(
        up, low, mu, q, a.order, absolute=True).eval(q.scalar(x)), _GAMMA_Q),
    "qbessel-j1": _Reads(("alpha", "y"), _BASE, lambda a, q, *p: qbessel_j1(*p, q, a.order),
                         _INFINITE),
    "qbessel-j2": _Reads(("alpha", "y"), _BASE, lambda a, q, *p: qbessel_j2(*p, q, a.order),
                         _INFINITE),
    "qbessel-i1": _Reads(("nu", "y"), _BASE,
                         lambda a, q, *p: modified_qbessel_i1(*p, q, a.order), _INFINITE),
    "kummer": _Reads(("b_param", "x"), {}, lambda a, q, b, x: kummer_1f1_unit_top(
        b, a.order).eval(ExactScalar.from_rational(x)), ("exact", "is evaluated exactly")),
}

_VERIFY = {
    "rahman": _Reads(("nu", "eta"), {**_BASE, "order": 30, **_TOL},
                     lambda a, q, *p: identities.verify_rahman_product(*p, q, a.order)),
    "finite-sum": _Reads(("nu", "eta"), {**_BASE, "m": 10, **_TOL},
                         lambda a, q, *p: identities.verify_finite_sum_identity(*p, q, a.m)),
    # order None: the verifier sizes the series from the tail bound
    "connection": _Reads(("alpha", "y"), {**_BASE, "order": None, **_TOL},
                         lambda a, q, *p: identities.verify_connection_formula(
                             *p, q, a.order), _INFINITE),
    "linearization": _Reads(("mu", "alpha", "beta"), {**_BASE, "order": 30, **_TOL},
                            lambda a, q, *p: identities.verify_linearization(*p, q, a.order)),
    "kummer": _Reads(("mu", "alpha", "beta"), {"order": 30, **_TOL},
                     lambda a, q, *p: identities.verify_kummer_linearization(*p, a.order),
                     ("exact", "is checked exactly")),
    "recqgamma": _Reads(("mu", "beta"), {**_BASE, "m": 10, **_TOL},
                        lambda a, q, *p: identities.verify_recqgamma(*p, q, a.m)),
    # the q -> 1 study sets its own bases
    "q-to-1": _Reads(("mu", "alpha", "beta", "x"), {"q_sequence": "0.9,0.99,0.999"},
                     lambda a, q, *p: identities.q_to_1_limit_study(*p, _q_sequence(a),
                                                                    digits=a.digits),
                     ("float", "runs in float mode")),
}

# TuranianSpec picks the certificate of a sign family
_SIGN = {"heine-f": _Reads((), _BASE), "heine-f-tilde": _Reads((), _BASE),
         "g": _Reads(("a", "b"), _BASE)}

# subcommand -> (the option that selects, {selection: what it reads})
_SELECTIONS = {"eval": ("family", _EVAL), "verify": ("identity", _VERIFY),
               "turanian": ("family", _SIGN), "scan": ("family", _SIGN)}


def _check_options(args) -> None:
    """Hold a run to what its selection reads (_SELECTIONS), before anything
    is computed or written, then fill in the defaults.  A typed option that
    the selection does not read, a missing required one, the other mode of
    a one-mode selection, and --digits or --tol in an exact run are errors."""
    subject, reads = None, _Reads((), {})
    if args.command in _SELECTIONS:
        key, table = _SELECTIONS[args.command]
        subject = f"--{key} {getattr(args, key)}"
        reads = table[getattr(args, key)]
        for name in dict.fromkeys(n for r in table.values() for n in r.names()):
            if getattr(args, name) is not None and name not in reads.names():
                raise QTuranError(f"--{name.replace('_', '-')} does not apply to {subject}")
        for name in reads.required:
            if getattr(args, name) is None:
                raise QTuranError(f"--{name.replace('_', '-')} is required for {subject}")
    if "mode" in vars(args):
        mode, how = reads.only or (None, None)
        if mode and args.mode not in (None, mode):
            raise QTuranError(f"{subject} {how}; --mode {args.mode} does not apply")
        args.mode = mode or args.mode or "exact"
        for name in ("digits", "tol"):
            if args.mode == "exact" and getattr(args, name, None) is not None:
                raise QTuranError(f"{subject} {how}; --{name} does not apply" if mode else
                                  f"--{name} does not apply to an exact run; "
                                  f"it is read only with --mode float")
        if args.digits is None:
            args.digits = _default_digits()
    for name, default in reads.optional.items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def _q_sequence(args) -> list[str]:
    seq = [s for s in args.q_sequence.split(",") if s]
    if not [parse_rational(s) for s in seq]:
        raise QTuranError("--q-sequence names no q")
    if len(seq) < 2:
        raise QTuranError(f"--q-sequence names one q ({seq[0]}); a q->1 study compares "
                          f"the deviations of at least two")
    return seq


# -- subcommand implementations ----------------------------------------------


class _Found(NamedTuple):
    """What one subcommand found, for run to report: its config entries, its
    verdict, residual and margin records, the line to print and whether it
    passed, and the CSV header with the records whose fields make the rows."""

    config: dict
    verdicts: list
    residuals: list
    margins: list
    message: str
    ok: bool
    csv_header: tuple = ()
    csv_records: list = ()


def cmd_eval(args) -> _Found:
    reads = _EVAL[args.family]
    value = scalar_text(reads.compute(args))
    point = {name: getattr(args, name) for name in reads.required}
    verdicts = [{"kind": "eval", "family": args.family, "value": value, **point}]
    return _Found({"family": args.family}, verdicts, [], [], value, True)


def _turanian_spec(args, q, mu, alpha, beta) -> TuranianSpec:
    a = parse_vector(args.a) if args.a else ()
    b = parse_vector(args.b) if args.b else ()
    return TuranianSpec(Family(args.family), mu, alpha, beta, q, args.order, a, b)


def cmd_turanian(args) -> _Found:
    q = make_qbase(args)
    spec = _turanian_spec(args, q, parse_rational(args.mu),
                          parse_rational(args.alpha), parse_rational(args.beta))
    rep = turanian.sign_certificate(spec)
    point = {"family": args.family, "mu": args.mu, "alpha": args.alpha,
             "beta": args.beta, "q": _q_text(args)}
    margins = []
    if not (spec.family == Family.HEINE_F_TILDE and q.is_exact):
        margins = [{"m": m, "coefficient": scalar_text(c)}
                   for m, c in enumerate(turanian.reported_turanian_series(spec, rep).coeffs)]
    cfg = {"family": args.family, "mu": args.mu, "alpha": args.alpha, "beta": args.beta,
           "a": args.a, "b": args.b}
    message = f"{args.family}: {rep.verdict.value} (expected {rep.expected.value})"
    return _Found(cfg, [report_verdict(rep, point)], [], margins, message,
                  rep.matches_expected,
                  ("family", "mu", "alpha", "beta", "q", "m", "coefficient"),
                  [{**point, **margin} for margin in margins])


def cmd_conditions(args) -> _Found:
    q = make_qbase(args)
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
    case = conditions.chain_case(c, d)
    return _Found({"a": args.a, "b": args.b}, [rec], [], [],
                  f"chain case: {case or 'none'}; majorization witness: "
                  f"{verdict.via_majorization}", bool(case))


def cmd_verify(args) -> _Found:
    try:
        tol = Fraction(args.tol) if args.tol is not None else None
    except (ValueError, ZeroDivisionError):
        raise QTuranError(f"--tol must be a number, got {args.tol!r}") from None
    if tol is not None and tol <= 0:
        raise QTuranError(f"--tol must be positive, got {args.tol}")
    out = _VERIFY[args.identity].compute(args)
    if args.identity == "q-to-1":
        results = out
        deviations = [r.max_abs.val for r in results]
        ok = all(b < a for a, b in zip(deviations, deviations[1:]))
        extra = {"identity": args.identity, "q_sequence": _q_sequence(args), "x": args.x}
        verdicts = [{"kind": "limit-study", "deviations_decreasing": ok}]
        message = f"q->1 deviations decreasing: {ok}"
    else:
        results = [out]
        extra = {"identity": args.identity, "tol": args.tol, "order": out.order_checked}
        verdicts = []
        ok = out.exact_zero if out.mode == "exact" else out.max_rel < tol
        status = "exact-zero" if out.exact_zero else f"max_rel={scalar_text(out.max_rel)}"
        message = f"{args.identity}: {status} -> {'ok' if ok else 'FAIL'}"
    residuals = [report_residual(r, {"identity": args.identity}) for r in results]
    return _Found(extra, verdicts, residuals, [], message, ok,
                  ("identity", "label", "mode", "exact_zero", "max_abs", "max_rel",
                   "order_checked"), residuals)


def cmd_scan(args) -> _Found:
    q = make_qbase(args)
    q_text = _q_text(args)
    verdicts = []
    for mu, al, be in itertools.product(parse_grid(args.mu_grid), parse_grid(args.alpha_grid),
                                        parse_grid(args.beta_grid)):
        rep = turanian.sign_certificate(_turanian_spec(args, q, mu, al, be))
        verdicts.append(report_verdict(rep, {"family": args.family, "mu": str(mu),
                                             "alpha": str(al), "beta": str(be), "q": q_text}))
    n_ok = sum(1 for v in verdicts if v["matches_expected"])
    cfg = {"family": args.family, "mu_grid": args.mu_grid, "alpha_grid": args.alpha_grid,
           "beta_grid": args.beta_grid, "a": args.a, "b": args.b}
    return _Found(cfg, verdicts, [], [],
                  f"scan: {n_ok}/{len(verdicts)} points match the predicted direction",
                  n_ok == len(verdicts),
                  ("family", "mu", "alpha", "beta", "q", "verdict", "expected",
                   "matches_expected", "min_margin", "first_violation"), verdicts)


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
        rows.append(["residual", rec.get("label", ""), "", "", "", "",
                     rec.get("max_rel", ""), rec.get("exact_zero", "")])
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
    p_eval.add_argument("--family", required=True, choices=list(_EVAL))
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
    p_tur.add_argument("--family", required=True, choices=list(_SIGN))
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
    p_ver.add_argument("--identity", required=True, choices=list(_VERIFY))
    p_ver.add_argument("--nu")
    p_ver.add_argument("--eta")
    p_ver.add_argument("--mu")
    p_ver.add_argument("--alpha")
    p_ver.add_argument("--beta")
    p_ver.add_argument("--x")
    p_ver.add_argument("--y")
    p_ver.add_argument("--m", type=int, help="the identity's m (default 10)")
    p_ver.add_argument("--tol", help="float-mode relative tolerance (default 1e-30)")
    p_ver.add_argument("--q-sequence", help="comma-separated q values for q-to-1")
    _add_common(p_ver)
    _add_order(p_ver, None)
    _add_csv(p_ver)
    p_ver.set_defaults(fn=cmd_verify)

    p_scan = subs.add_parser("scan", help="sweep certificates over parameter grids")
    p_scan.add_argument("--family", required=True, choices=list(_SIGN))
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

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, low in (("order", 0), ("m", 0), ("digits", 10)):
            value = getattr(args, name, None)
            if value is not None and value < low:
                raise QTuranError(f"--{name} must be an integer >= {low}, got {value}")
        _check_options(args)
        if args.command == "report":
            return cmd_report(args)
        started = time.monotonic()
        found = args.fn(args)
        timing = None if args.mode == "exact" else time.monotonic() - started
        write_report(args.out, _config_common(args, found.config), found.verdicts,
                     found.residuals, found.margins, timing)
        if getattr(args, "csv", None):
            # csv.writer writes None as an empty field
            write_csv(args.csv, found.csv_header,
                      [[rec[key] for key in found.csv_header] for rec in found.csv_records])
        print(found.message)
        return 0 if found.ok else 1
    except QTuranError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
