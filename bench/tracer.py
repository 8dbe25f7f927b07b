"""Span tracer that wraps qturan's functions from outside the package.

Installing a :class:`Tracer` replaces every function defined in the traced
modules, plus the ``TruncatedSeries`` Cauchy product and evaluation, by a
wrapper that records a span: name, command id, parent span, start and end.
Modules import each other's functions by name, so every ``qturan.*`` module
attribute that *is* a wrapped function is patched, found by identity.
Leaving the ``with`` block restores the originals.

``scalar`` is not wrapped: its functions run some 10^4 times per command,
and spans there would cost more than the work they time.  It is measured by
the fixed-input stages in ``stages.py`` instead.

A name that a per-layer metric refers to but that the code no longer has
(say ``_rho_interval`` after a refactor) is listed in ``absent`` and its
metric reads 0 rather than the tracer failing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import types

LAYERS = ("series", "qcore", "turanian", "conditions", "identities", "analysis", "cli")
METHODS = ("TruncatedSeries.__mul__", "TruncatedSeries.eval")

CAUCHY = "series.TruncatedSeries.__mul__"
EVAL = "series.TruncatedSeries.eval"
BUILDS = {f"series.{n}" for n in ("tphis_series", "heine_f_series", "heine_f_tilde_series",
                                   "g_series", "g_relative_prefactor", "kummer_1f1_unit_top",
                                   "zero_series")} | {"identities.heine_phi_q0_series"}
POINT_EVALS = {EVAL} | {f"series.{n}" for n in ("qbessel_j1", "qbessel_j2",
                                                 "modified_qbessel_i1", "kummer_1f1_value",
                                                 "geometric_tail_order")}
CERTS = {f"turanian.{n}" for n in ("delta_sign_certificate", "delta_tilde_sign_certificate",
                                    "gamma_sign_certificate")}
CLASSIFY = {f"turanian.{n}" for n in ("_classify_exact", "_classify_float",
                                       "_float_error_bounds")}
RHO = "turanian._rho_interval"
RHO_PARTS = {RHO, "turanian._qpoch_inf_interval"}
VERIFIERS = {f"identities.{n}" for n in (
    "verify_rahman_product", "verify_finite_sum_identity", "verify_connection_formula",
    "verify_linearization", "verify_kummer_linearization", "verify_recqgamma",
    "q_to_1_limit_study")}
QPOCH_INF = {"qcore.qpochhammer_infinite", "qcore._infinite_tail_terms"}
QGAMMA = {"qcore.qgamma", "qcore.qgamma_ratio"}
QPOCH_FINITE = {"qcore.qpochhammer_finite", "qcore.shifted_factorial"}
NAMED = (BUILDS | POINT_EVALS | CERTS | CLASSIFY | RHO_PARTS | VERIFIERS | QPOCH_INF
         | QGAMMA | QPOCH_FINITE)

# positional index of ``order`` in the point evaluators that sum a loop
ORDER_ARG = {"series.qbessel_j1": 3, "series.qbessel_j2": 3, "series.modified_qbessel_i1": 3}


def coeff_bits(c) -> int:
    """Bits of an exact coefficient a + b sqrt(r) (numerators and denominators),
    or of a float coefficient's mantissa."""
    if hasattr(c, "rad"):
        return sum(f.numerator.bit_length() + f.denominator.bit_length() for f in (c.a, c.b))
    return int(c.digits * 3.3219)


def _cauchy_probe(args, kwargs, result):
    left, right = args
    bits = max(coeff_bits(c) for c in (*left.coeffs, *right.coeffs))
    pair = tuple(sorted((hash(left.coeffs), hash(right.coeffs))))
    return {"mults": (result.order + 1) * (result.order + 2) // 2, "bits": bits, "key": pair}


def _build_probe(name):
    def probe(args, kwargs, result):
        return {"key": repr((name, args, sorted(kwargs.items())))}
    return probe


def _eval_probe(args, kwargs, result):
    return {"terms": len(args[0].coeffs)}


def _order_probe(pos):
    def probe(args, kwargs, result):
        return {"terms": kwargs["order"] if "order" in kwargs else args[pos]}
    return probe


def _probe_for(name):
    if name == CAUCHY:
        return _cauchy_probe
    if name == EVAL:
        return _eval_probe
    if name in BUILDS:
        return _build_probe(name)
    if name in ORDER_ARG:
        return _order_probe(ORDER_ARG[name])
    return None


class Tracer:
    """Records spans of qturan calls while installed (``with Tracer() as t``)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []       # [name id, command, parent, start, end]
        self.extra: dict[int, dict] = {}  # span index -> probe counters
        self.absent: list[str] = []
        self.command = -1
        self._local = threading.local()
        self._patches: list[tuple] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qturan.{layer}")
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        series = importlib.import_module("qturan.series")
        for qual in METHODS:
            cls_name, meth = qual.split(".")
            cls = getattr(series, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(orig, f"series.{qual}"))
            self._patches.append((cls, meth, orig))
        for modname, mod in list(sys.modules.items()):
            if modname != "qturan" and not modname.startswith("qturan."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patches.append((mod, attr, obj))
        present = set(self.names)
        self.absent = sorted(NAMED - present)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        spans, extra, local = self.spans, self.extra, self._local
        clock = time.perf_counter
        probe = _probe_for(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            idx = len(spans)
            span = [nid, self.command, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if probe is not None:
                extra[idx] = probe(args, kwargs, result)
            return result

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (nid, cmd, parent, start, end) in enumerate(self.spans):
                rec = {"id": idx, "name": self.names[nid], "command": cmd,
                       "parent": parent, "start": start, "end": end}
                rec.update({k: v for k, v in self.extra.get(idx, {}).items() if k != "key"})
                fh.write(json.dumps(rec) + "\n")

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics over all recorded spans; ``wall`` is the traced
        commands' summed latency."""
        names = [self.names[s[0]] for s in self.spans]
        self_time = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                self_time[s[2]] -= s[4] - s[3]

        def self_sum(match) -> float:
            return sum(t for n, t in zip(names, self_time) if match(n))

        def count(match) -> int:
            return sum(1 for n in names if match(n))

        def repeat_frac(indices) -> float:
            seen, repeats = set(), 0
            for i in indices:
                key = (self.spans[i][1], self.extra[i]["key"])
                repeats += key in seen
                seen.add(key)
            return repeats / len(indices) if indices else 0.0

        cauchy = [i for i, n in enumerate(names) if n == CAUCHY and i in self.extra]
        builds = [i for i, n in enumerate(names) if n in BUILDS and i in self.extra
                  and (self.spans[i][2] < 0 or names[self.spans[i][2]] not in BUILDS)]
        rho_spans = [i for i, n in enumerate(names) if n == RHO]

        def layer_self(layer: str) -> float:
            return self_sum(lambda n: n.startswith(layer + "."))

        attributed = sum(self_time)
        return {
            "series.cauchy_s": self_sum(lambda n: n == CAUCHY),
            "series.cauchy_calls": len(cauchy),
            "series.cauchy_coeff_mults": sum(self.extra[i]["mults"] for i in cauchy),
            "series.cauchy_operand_kbits":
                sum(self.extra[i]["bits"] for i in cauchy) / len(cauchy) / 1000 if cauchy else 0.0,
            "series.cauchy_repeat_frac": repeat_frac(cauchy),
            "series.build_s": self_sum(lambda n: n in BUILDS),
            "series.build_calls": len(builds),
            "series.build_repeat_frac": repeat_frac(builds),
            "turanian.cert_calls": count(lambda n: n in CERTS),
            "turanian.cert_self_s": self_sum(
                lambda n: n.startswith("turanian.") and n not in CLASSIFY and n not in RHO_PARTS),
            "turanian.classify_s": self_sum(lambda n: n in CLASSIFY),
            "turanian.rho_s": sum(self.spans[i][4] - self.spans[i][3] for i in rho_spans),
            "turanian.rho_calls": len(rho_spans),
            "identities.verify_calls": count(lambda n: n in VERIFIERS),
            "identities.self_s": layer_self("identities"),
            "qcore.qpoch_inf_calls": count(lambda n: n == "qcore.qpochhammer_infinite"),
            "qcore.qpoch_inf_s": self_sum(lambda n: n in QPOCH_INF),
            "qcore.qgamma_s": self_sum(lambda n: n in QGAMMA),
            "qcore.qpoch_finite_s": self_sum(lambda n: n in QPOCH_FINITE),
            "series.pointeval_s": self_sum(lambda n: n in POINT_EVALS),
            "series.eval_terms": sum(extra.get("terms", 0) for extra in self.extra.values()),
            "conditions.self_s": layer_self("conditions"),
            "analysis.self_s": layer_self("analysis"),
            "cli.self_s": layer_self("cli"),
            "trace.unattributed_frac": (wall - attributed) / wall if wall > 0 else 0.0,
        }
