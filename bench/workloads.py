"""Seeded command streams for the benchmark workloads.

A workload is an endless stream of rounds, each a few seconds of work.
Every round holds the same number of commands in each stratum whatever the
seed; the seed only picks the parameters inside a stratum, drawn without
replacement, so no command repeats within a run.  The order of the strata
inside a round is fixed, and a timed run stops only between rounds, so it
covers the same mix on every seed and at every host speed.  A stream ends
early, after its last whole round, only when a stratum runs out of fresh
parameters.

Nothing here imports qturan: the streams are plain data, checked by
``gate.py`` and executed by ``worker.py``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

# Parameter vectors whose derived chain condition is known for every q used
# here: (2,3 | 1,2) satisfies chain (b), (1,1,1 | 2,2) satisfies chain (a).
G_VECTORS = {"b": ("2,3", "1,2"), "a": ("1,1,1", "2,2")}
SIGN_ORDER = 60
HIGH_ORDER = 90
FLOAT_TOL = "1e-35"          # connection formula and high-order eval
MARGIN_FLOOR = "1e-30"       # Turan point inequalities
LAPLACE_TOL = "1e-20"


@dataclass
class Command:
    """One closed-loop operation sent to the program.

    ``argv`` is a ``qturan`` command line (the worker adds ``--out`` and,
    with ``csv``, ``--csv``); ``call`` names a library check instead.
    ``expect`` is what the gate demands of the result.
    """

    key: str
    ops: int
    expect: dict
    argv: tuple = ()
    csv: bool = False
    call: str = ""
    params: dict = field(default_factory=dict)
    round: int = 0


class Exhausted(Exception):
    """A stratum has no fresh parameters left."""


class Draws:
    """Parameter pools, one per stratum key, shuffled by the seed and drawn
    without replacement."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.pools: dict = {}

    def __call__(self, key, items):
        pool = self.pools.get(key)
        if pool is None:
            pool = self.pools[key] = list(items)
            self.rng.shuffle(pool)
        if not pool:
            raise Exhausted
        return pool.pop()


def _fmt(x) -> str:
    return str(F(x))


# -- exact-sign ---------------------------------------------------------------

SIGN_STRATA = (("1/2", "int"), ("3/4", "half"), ("1/4", "int"),
               ("1/2", "half"), ("3/4", "int"), ("1/4", "half"))
# (family, q, shift) of the single-point ``turanian`` commands, in turn
SINGLES = (("heine-f", "1/2", "half"), ("g-b", "3/4", "int"),
           ("heine-f-tilde", "1/4", "half"), ("g-a", "1/2", "int"),
           ("heine-f", "3/4", "int"), ("g-b", "1/4", "half"),
           ("heine-f-tilde", "1/2", "int"), ("g-a", "3/4", "half"))
HALF_ODD = tuple(F(2 * k + 1, 2) for k in range(6))     # 1/2 .. 11/2
# Values of 2 mu + alpha + beta, cycled by round.  The coefficients of both
# Cauchy products F(mu+a)F(mu+b) and F(mu)F(mu+a+b) grow with that sum, so
# fixing it keeps a certificate's cost within about 10% whatever shifts the
# seed picks.
MASSES = {("heine", "int"): (7, 8, 9), ("heine", "half"): (5, 6, 7),
          ("g", "int"): (6, 7, 8), ("g", "half"): (7, 8, 9)}


def sign_combos(family: str, shift: str, rnd: int) -> list[tuple]:
    """(mu, alpha, beta) of one stratum in round ``rnd``.

    ``int``: integer mu, alpha, beta.  ``half``: half-odd mu; for the Heine
    families half-odd alpha and beta too, so exactly F(mu) and F(mu+a+b)
    lie in Q(sqrt q); the g family needs integer alpha <= beta + 1.
    """
    g = family.startswith("g")
    if shift == "int":
        mus, shifts = (range(0, 5) if g else range(1, 5)), range(1, 9)
    else:
        mus, shifts = HALF_ODD[:4], (range(1, 9) if g else HALF_ODD)
    masses = MASSES[("g" if g else "heine", shift)]
    mass = masses[rnd % len(masses)]
    return [(F(mu), F(a), F(b)) for mu in mus for a in shifts for b in shifts
            if 2 * mu + a + b == mass and (not g or a <= b + 1)]


def _sign_expect(family: str, points) -> dict:
    name = "g" if family.startswith("g") else family
    case = family[2:] if family.startswith("g") else None
    return {"kind": "sign", "family": name, "case": case,
            "points": [[_fmt(m), _fmt(a), _fmt(b)] for m, a, b in points]}


def _family_args(family: str, q: str) -> list[str]:
    if family.startswith("g"):
        a, b = G_VECTORS[family[2:]]
        return ["--family", "g", "--a", a, "--b", b, "--q", q]
    return ["--family", family, "--q", q]


def _sign_scan(family, q, mus, alpha, beta, order, mode="exact") -> Command:
    """A scan over mu (one value, or mu and mu + 1) at fixed alpha, beta."""
    mus = [F(m) for m in mus]
    grid = f"{mus[0]}:{mus[-1]}:1" if len(mus) > 1 else str(mus[0])
    argv = ["scan", *_family_args(family, q), "--mu-grid", grid,
            "--alpha-grid", _fmt(alpha), "--beta-grid", _fmt(beta),
            "--order", str(order), "--mode", mode]
    points = [(m, alpha, beta) for m in mus]
    return Command(" ".join(argv), len(points), _sign_expect(family, points),
                   argv=tuple(argv))


def exact_sign(seed: int):
    """Exact sign certificates, mostly 2-point scans whose shifts overlap.

    A round holds one scan per (q, shift) stratum, the family rotating with
    the round, so three rounds make a cycle that scans every stratum with
    every family; the stratum sets most of a certificate's cost, so every
    round costs about the same.  Each round adds one more command, in a
    cycle of four: a single-point ``turanian``, an order-90 scan, another
    single, and a g scan at beta = 0.
    """
    draw = Draws(random.Random(f"exact-sign/{seed}"))

    # spot check of the paper's worked value: Delta_1 = -20/21
    spot = ["turanian", "--family", "heine-f", "--q", "1/2", "--mu", "1",
            "--alpha", "1", "--beta", "1", "--order", str(SIGN_ORDER)]
    expect = _sign_expect("heine-f", [(1, 1, 1)])
    expect.update(coeffs=SIGN_ORDER + 1, spot={"m": 1, "value": "-20/21"})
    commands = [Command(" ".join(spot), 1, expect, argv=tuple(spot), csv=True)]

    for rnd in itertools.count():
        cycle = rnd // 3
        for i, (q, shift) in enumerate(SIGN_STRATA):
            g_family = "g-b" if (i + cycle) % 2 == 0 else "g-a"
            family = ("heine-f", "heine-f-tilde", g_family)[(rnd + i) % 3]
            mu, alpha, beta = draw(("scan", family, q, shift, cycle % 3),
                                   sign_combos(family, shift, cycle))
            commands.append(_sign_scan(family, q, (mu, mu + 1), alpha, beta, SIGN_ORDER))
        extra, turn = rnd % 4, rnd // 4
        if extra in (0, 2):
            k = 2 * turn + extra // 2
            family, sq, sshift = SINGLES[k % len(SINGLES)]
            mu, alpha, beta = draw(("single", family, sq, sshift, (k // 2) % 3),
                                   sign_combos(family, sshift, k // 2))
            argv = ["turanian", *_family_args(family, sq), "--mu", _fmt(mu),
                    "--alpha", _fmt(alpha), "--beta", _fmt(beta),
                    "--order", str(SIGN_ORDER)]
            expect = _sign_expect(family, [(mu, alpha, beta)])
            if family != "heine-f-tilde":    # exact tilde emits no coefficients
                expect["coeffs"] = SIGN_ORDER + 1
            commands.append(Command(" ".join(argv), 1, expect, argv=tuple(argv), csv=True))
        elif extra == 1:
            family = ("heine-f", "heine-f-tilde")[turn % 2]
            mu, alpha, beta = draw(("high", family, turn % 3),
                                   sign_combos(family, "int", turn))
            commands.append(_sign_scan(family, "1/2", (mu,), alpha, beta, HIGH_ORDER))
        else:
            # beta = 0 makes the g Turanian vanish identically
            g_family = ("g-b", "g-a")[turn % 2]
            mu = draw(("zero", g_family), range(40))
            commands.append(_sign_scan(g_family, "1/2", (mu, mu + 1), 1, 0, SIGN_ORDER))
        yield commands
        commands = []


# -- exact-identity -----------------------------------------------------------

HALVES = tuple(F(k, 2) for k in range(1, 9))          # 1/2 .. 4
WIDE = tuple(F(k, 2) for k in range(1, 13))           # 1/2 .. 6
BETAS = (0, F(1, 2), 1, F(3, 2), 2)


def _verify(identity: str, base: list[str], **params) -> Command:
    argv = ["verify", "--identity", identity, *base, "--mode", "exact"]
    for name, value in params.items():
        argv += [f"--{name}", str(value)]
    return Command(" ".join(argv), 1, {"kind": "exact-zero"}, argv=tuple(argv))


def exact_identity(seed: int):
    """Short exact identity checks at the acceptance orders (<= 30).

    The linearization's alpha, which sets how many terms its right side has,
    rotates with the round; the seed draws the other parameters.
    """
    draw = Draws(random.Random(f"exact-identity/{seed}"))
    for rnd in itertools.count():
        commands = []
        for j, q in enumerate(("1/4", "1/2", "3/4")):
            alpha = 1 + (rnd + j) % 3
            mu, beta = draw(("lin", q, alpha), itertools.product(HALVES[:6], BETAS))
            commands.append(_verify("linearization", ["--q", q], mu=mu, alpha=alpha,
                                    beta=beta, order=30))
        for p in ("1/2", "3/4"):
            nu, eta = draw(("rahman", p), itertools.product(WIDE, WIDE))
            commands.append(_verify("rahman", ["--p", p], nu=nu, eta=eta, order=25))
        p = ("1/2", "3/4")[rnd % 2]
        nu, eta = draw(("finite", p), itertools.product(HALVES, HALVES))
        commands += [_verify("finite-sum", ["--p", p], nu=nu, eta=eta, m=m) for m in range(21)]
        q = ("1/2", "1/4")[rnd % 2]
        mu, beta = draw(("recq", q), itertools.product(HALVES, HALVES))
        commands += [_verify("recqgamma", ["--q", q], mu=mu, beta=beta, m=m) for m in range(11)]
        for j in range(2):
            alpha = 1 + (2 * rnd + j) % 3
            mu, beta = draw(("kummer", alpha), itertools.product(WIDE, BETAS))
            commands.append(_verify("kummer", [], mu=mu, alpha=alpha, beta=beta, order=30))
        yield commands


# -- float-checks -------------------------------------------------------------

TENTHS = tuple(F(k, 10) for k in range(1, 10))
YS = tuple(F(k, 10) for k in range(1, 20))


def float_checks(seed: int):
    """50-digit float mode: CLI checks plus the acceptance library checks.

    The evaluation points, which set the series lengths and so the cost,
    rotate with the round; the seed draws the other parameters.  A round
    holds one connection check, the cheapest command, and a Laplace check
    at one point, the dearest, so that neither the median nor the tail
    falls in a gap between the costs of two kinds of command, where it
    would jump as the number of rounds in a run changes.
    """
    draw = Draws(random.Random(f"float-checks/{seed}"))
    for rnd in itertools.count():
        commands = []
        q, y = ("3/10", "1/2", "4/5")[rnd % 3], YS[rnd % len(YS)]
        alpha = draw(("conn", q, y), (0, F(1, 2), 1, F(3, 2), 2))
        argv = ["verify", "--identity", "connection", "--q", q, "--alpha", str(alpha),
                "--y", str(y), "--mode", "float", "--tol", FLOAT_TOL]
        commands.append(Command(" ".join(argv), 1, {"kind": "float-residual", "tol": FLOAT_TOL},
                                argv=tuple(argv)))
        x = (F(1, 4), F(1, 2), F(3, 4))[rnd % 3]
        mu, alpha, beta = draw(("limit", x), itertools.product(
            (F(1, 2), 1, F(3, 2), 2), (1, 2), (F(1, 2), 1, 2)))
        argv = ["verify", "--identity", "q-to-1", "--mu", str(mu), "--alpha", str(alpha),
                "--beta", str(beta), "--x", str(x), "--mode", "float"]
        commands.append(Command(" ".join(argv), 1, {"kind": "limit"}, argv=tuple(argv)))
        for family in ("heine-f", "heine-f-tilde", ("g-b", "g-a")[rnd % 2]):
            combos = [c for r in range(3) for c in sign_combos(family, "int", r)]
            q, (mu, alpha, beta) = draw(("scan", family),
                                        itertools.product(("1/4", "1/2", "3/4"), combos))
            commands.append(_sign_scan(family, q, (mu, mu + 1), alpha, beta, SIGN_ORDER,
                                       mode="float"))
        x = TENTHS[rnd % len(TENTHS)]
        mu = draw(("eval", x), HALVES)
        argv = ["eval", "--family", "heine-f", "--mu", str(mu), "--x", str(x), "--q", "1/2",
                "--mode", "float", "--order", "1200"]
        commands.append(Command(" ".join(argv), 1, {"kind": "eval", "mu": str(mu), "x": str(x),
                                                    "q": "1/2", "tol": FLOAT_TOL},
                                argv=tuple(argv)))
        for k, (direction, case) in enumerate((("direct", "b"), ("inverse", "a"))):
            x = TENTHS[(rnd + 4 * k) % len(TENTHS)]
            mu = draw(("point", direction, x), HALVES)
            params = {"mu": str(mu), "x": str(x), "direction": direction, "case": case}
            commands.append(Command(f"turan-point {params}", 1,
                                    {"kind": "margin", "floor": MARGIN_FLOOR},
                                    call="turan-point", params=params))
        mu, beta, pair_seed = draw("cm-mc", itertools.product(HALVES[:6], (1, 2), range(100)))
        params = {"mu": str(mu), "beta": beta, "pair_seed": pair_seed}
        commands.append(Command(f"cm-mc {params}", 2, {"kind": "holds"}, call="cm-mc",
                                params=params))
        x = TENTHS[rnd % 6]
        mu, beta = draw(("laplace", x), itertools.product(HALVES[:4], (1, 2)))
        params = {"mu": str(mu), "beta": beta, "x": [str(x)]}
        commands.append(Command(f"laplace {params}", 1, {"kind": "laplace", "tol": LAPLACE_TOL},
                                call="laplace", params=params))
        yield commands


WORKLOADS = {
    "exact-sign": exact_sign,
    "exact-identity": exact_identity,
    "float-checks": float_checks,
}


def stream(workload: str, seed: int):
    """The workload's commands in run order, each marked with its round;
    stops after the last whole round when a stratum is used up."""
    try:
        for rnd, commands in enumerate(WORKLOADS[workload](seed)):
            for cmd in commands:
                cmd.round = rnd
                yield cmd
    except Exhausted:
        return
