"""One pass of a workload, in a fresh interpreter started by ``run.py``.

Usage: ``python3 bench/worker.py JOB.json RESULT.json``.  The job names the
workload, the seed, and either a time budget (``seconds``) or a fixed
number of commands (``count``), whether to trace, and whether to time the
fixed-input stages.  Commands run one at a time (closed loop, one client):
CLI commands through ``qturan.cli.run(argv)`` in-process, library checks as
plain calls.  Only the call itself is timed; reading and checking its
report is not.

A command's ``latency`` is the CPU time it used: this process's (all
threads) plus that of any child process reaped during the call.  Its wall
time is kept as ``wall``.  On a virtual machine whose CPUs are shared, the
wall time of the same call swings by up to 2x with the time the host takes
the CPU away, while its CPU time stays within a few percent.  The time
budget is counted in CPU seconds too, and a timed pass stops only between
rounds of the workload, so it runs the same mix of commands however busy
the host is; a wall-time cap, which may cut a round, keeps the run finite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import mpmath
import mpmath.libmp
import qturan.cli
from qturan import analysis, turanian
from qturan.qcore import QBase
from qturan.scalar import fl

import gate
import workloads

# Library checks call through module attributes (``turanian.f``, not a name
# imported here), so that the tracer's patches reach them.
MIN_COMMANDS = 20       # per timed pass, so that the latency tail exists
WALL_CAP = 1.6          # a timed pass stops after this many times its budget in wall time
DIGITS = 50
CASE_VECTORS = {"b": ((F(2), F(3)), (F(1), F(2))), "a": ((F(1),) * 3, (F(2), F(2)))}


def _case_b_series(mu: str, beta: int):
    """Float image of the exact case-(b) g Turanian at (mu, 1, beta), order 40."""
    a, b = CASE_VECTORS["b"]
    spec = turanian.TuranianSpec(turanian.Family.G_NORMALIZED, F(mu), F(1), F(beta),
                                 QBase.exact(q=F(1, 2)), 40, a=a, b=b)
    return turanian.turanian_series(spec).to_float(DIGITS)


def turan_point(mu: str, x: str, direction: str, case: str) -> dict:
    a, b = CASE_VECTORS[case]
    ok, margin = turanian.turan_point_inequality(
        turanian.Family.G_NORMALIZED, F(mu), F(x), QBase.floating(F(1, 2), DIGITS), direction,
        a=a, b=b)
    return {"ok": ok, "margin": mpmath.nstr(margin.val, 20)}


def cm_mc(mu: str, beta: int, pair_seed: int) -> dict:
    ts = _case_b_series(mu, beta)
    grid = [fl(F(20 + k, 20), DIGITS) for k in range(81)]          # 1 .. 5
    ok_cm, margins = analysis.complete_monotonicity_check(lambda y: ts.eval(1 / y), grid, 6)
    rng = random.Random(pair_seed)
    pairs = [(fl(F(rng.randint(1, 40), 20), DIGITS), fl(F(rng.randint(1, 40), 20), DIGITS))
             for _ in range(20)]
    ok_mc, _ = analysis.multiplicative_convexity_check(ts.eval, pairs)
    return {"cm": ok_cm and all(m.sign() >= 0 for m in margins), "mc": ok_mc}


def laplace(mu: str, beta: int, x: list) -> dict:
    md = analysis.measure_from_series(_case_b_series(mu, beta))
    res = analysis.laplace_representation_check(md, [F(v) for v in x], digits=DIGITS,
                                                upper_limit=80)
    return {"max_rel": mpmath.nstr(res.max_rel.val, 20)}


LIBRARY = {"turan-point": turan_point, "cm-mc": cm_mc, "laplace": laplace}


def cpu_clock() -> float:
    """CPU seconds used by this process and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def execute(cmd, index: int, outdir: Path) -> dict:
    """Run one command, time it, and judge its result."""
    rec = {"key": cmd.key, "round": cmd.round, "ops": cmd.ops, "bytes": 0, "digest": None}
    paths = []
    start, cpu_start = time.perf_counter(), cpu_clock()

    def stop() -> None:
        rec["latency"] = cpu_clock() - cpu_start
        rec["wall"] = time.perf_counter() - start

    try:
        if cmd.argv:
            argv = [*cmd.argv, "--out", str(outdir / f"{index}.json")]
            paths.append(outdir / f"{index}.json")
            if cmd.csv:
                argv += ["--csv", str(outdir / f"{index}.csv")]
                paths.append(outdir / f"{index}.csv")
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = qturan.cli.run(argv)
            stop()
            data = paths[0].read_bytes()
            result = json.loads(data)
            result["rc"] = rc
            if cmd.csv:
                result["csv"] = paths[1].read_text(encoding="utf-8")
            rec["bytes"] = sum(p.stat().st_size for p in paths)
            if result["config"].get("mode") == "exact":
                rec["digest"] = hashlib.sha256(data).hexdigest()
        else:
            result = LIBRARY[cmd.call](**cmd.params)
            stop()
        rec["failed"], rec["problems"] = gate.check(cmd, result)
    except (Exception, SystemExit) as exc:     # argparse reports bad argv by SystemExit
        if "latency" not in rec:
            stop()
        rec["failed"], rec["problems"] = cmd.ops, [f"{type(exc).__name__}: {exc}"]
    finally:
        for path in paths:
            path.unlink(missing_ok=True)
    rec["rss_kb"] = peak_rss_kb()
    return rec


def run_pass(job: dict, tracer=None) -> list[dict]:
    outdir = Path(job["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    records = []
    start, spent = time.perf_counter(), 0.0
    for index, cmd in enumerate(workloads.stream(job["workload"], job["seed"])):
        if "count" in job:
            if index >= job["count"]:
                break
        elif index >= MIN_COMMANDS and (
                (spent >= job["seconds"] and cmd.round != records[-1]["round"])
                or time.perf_counter() - start >= WALL_CAP * job["seconds"]):
            break
        if tracer is not None:
            tracer.command = index
        records.append(execute(cmd, index, outdir))
        spent += records[-1]["latency"]
    outdir.rmdir()
    return records


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    result = {"backend": mpmath.libmp.BACKEND, "qturan": qturan.cli.__file__}
    if job["trace"]:
        from tracer import Tracer

        with Tracer() as tracer:
            records = run_pass(job, tracer)
        wall = sum(r["wall"] for r in records)
        result["layers"] = tracer.metrics(wall)
        result["absent"] = tracer.absent
        tracer.write_jsonl(job["trace_path"])
    else:
        records = run_pass(job)
    if job.get("stages"):
        from stages import stage_timings

        result["stages"], absent = stage_timings()
        result["absent"] = result.get("absent", []) + absent
    result["records"] = records
    result["peak_rss_kb"] = peak_rss_kb()
    # Memory creeps up with every command, so the peak after a fixed prefix
    # is what compares across runs of different lengths.
    result["prefix_rss_kb"] = records[:MIN_COMMANDS][-1]["rss_kb"]
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:3])
