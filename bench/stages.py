"""Fixed-input stage timings: one layer at a time, on real coefficients.

The inputs come from the program itself: Heine series and their Cauchy
products at q = 3/4, order 60, whose coefficients are rational (integer mu)
or lie in Q(sqrt q) (half-integer mu).  The scalar stages pick the
coefficients whose size is closest to 1k and 8k bits.  Every stage is timed
with ``time.perf_counter`` only, as the median of a few batches.

A stage whose private entry point the code no longer has is skipped and
named in the returned ``absent`` list.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction as F

from qturan import turanian
from qturan.qcore import QBase, qpochhammer_infinite
from qturan.scalar import FloatScalar
from qturan.series import g_series, heine_f_series

from tracer import coeff_bits


def median_time(fn, budget: float = 0.25, batches: int = 5) -> float:
    """Median seconds per call of ``fn`` over ``batches`` batches of ~budget total."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    reps = max(1, int(budget / batches / max(once, 1e-7)))
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - start) / reps)
    return statistics.median(times)


def _closest(coeffs, bits: int):
    """Two neighbouring coefficients whose size is closest to ``bits``."""
    i = min(range(1, len(coeffs) - 1), key=lambda k: abs(coeff_bits(coeffs[k]) - bits))
    return coeffs[i], coeffs[i + 1]


def stage_timings() -> tuple[dict[str, float], list[str]]:
    q = QBase.exact(q=F(3, 4))
    rational = heine_f_series(F(1), q, 60)
    radical = heine_f_series(F(1, 2), q, 60)
    q_coeffs = rational.coeffs + (rational * rational).coeffs
    sqrt_coeffs = radical.coeffs + (radical * radical).coeffs
    out: dict[str, float] = {}
    for label, coeffs in (("q", q_coeffs), ("sqrt", sqrt_coeffs)):
        for size, bits in (("1k", 1000), ("8k", 8000)):
            x, y = _closest(coeffs, bits)
            out[f"scalar.mul_{label}_{size}_us"] = median_time(lambda: x * y) * 1e6
    x, y = _closest(sqrt_coeffs, 8000)
    out["scalar.add_sqrt_8k_us"] = median_time(lambda: x + y) * 1e6
    diff = x - y
    out["scalar.sign_sqrt_8k_us"] = median_time(diff.sign) * 1e6
    fx, fy = FloatScalar(F(3, 7), 50), FloatScalar(F(5, 11), 50)
    out["scalar.float_mul_50d_us"] = median_time(lambda: fx * fy) * 1e6

    out["series.heine60_ms"] = median_time(lambda: heine_f_series(F(1, 2), q, 60)) * 1e3
    out["series.g60_ms"] = median_time(
        lambda: g_series((F(1), F(1), F(1)), (F(2), F(2)), F(1, 2), q, 60)) * 1e3
    out["series.cauchy60_ms"] = median_time(lambda: radical * radical, batches=3) * 1e3

    absent = []
    mu, alpha, beta = F(3, 2), F(1, 2), F(3, 2)
    classify = getattr(turanian, "_classify_exact", None)
    if classify is None:
        absent.append("turanian._classify_exact")
    else:
        spec = turanian.TuranianSpec(turanian.Family.HEINE_F, mu, alpha, beta, q, 60)
        tail = turanian.turanian_series(spec).coeffs[1:]
        out["turanian.classify60_ms"] = median_time(lambda: classify(tail)) * 1e3
    rho = getattr(turanian, "_rho_interval", None)
    if rho is None:
        absent.append("turanian._rho_interval")
    else:
        out["turanian.rho_round_ms"] = median_time(lambda: rho(mu, alpha, beta, q, 60)) * 1e3

    qf = QBase.floating(F(1, 2), 50)
    out["qcore.qpoch_inf_50d_us"] = median_time(lambda: qpochhammer_infinite(qf.q, qf)) * 1e6
    return out, absent
