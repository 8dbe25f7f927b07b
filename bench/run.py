"""Benchmark entry point.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qturan is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh interpreters importing ``qturan.cli`` and building its
parser), then one fresh worker interpreter that runs the workload for S
seconds.  Times are CPU seconds (see ``worker.py`` for why); wall times go
on the details line.  ``--trace 1`` measures the per-layer metrics instead: a fixed
prefix of the workload runs untraced in one fresh interpreter and traced
in another (their wall ratio is the tracing overhead), followed by the
fixed-input stage timings.  Spans are written as JSON lines under
``.bench_out/``.

Every operation is checked (see ``gate.py``); exact-mode reports are
hashed, and a seed's digests must match across runs and passes.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
provenance and details.  The exit code is non-zero, with no result line,
when the checkout has no ``src/qturan``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("exact-sign", "exact-identity", "float-checks")
SETUP_PROBES = 11
# commands in the traced prefix, about 10 s untraced on a 2-CPU x86 box
TRACE_COMMANDS = {"exact-sign": 12, "exact-identity": 300, "float-checks": 30}
DEADLINE_S = 170
PROBE = ("import time, qturan.cli as c; c.build_parser(); "
         "print('ready', time.process_time(), flush=True)")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("QTURAN_DIGITS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_seconds(deadline: float) -> tuple[float, float]:
    """CPU and wall time from spawning an interpreter to qturan.cli imported
    and its parser built."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        words = proc.stdout.readline().split()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=max(deadline - time.monotonic(), 1))
    if words[:1] != ["ready"] or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return float(words[1]), elapsed


def run_worker(job: dict, tag: str, deadline: float) -> dict:
    job_path = OUT / f"job-{tag}.json"
    result_path = OUT / f"result-{tag}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                   cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
                   timeout=max(deadline - time.monotonic(), 1))
    result = json.loads(result_path.read_text(encoding="utf-8"))
    job_path.unlink()
    result_path.unlink()
    return result


def source_id() -> str:
    """Hash of the qturan sources, so digests of other versions are kept apart."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qturan").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_digests(workload: str, seed: int, passes: list[list[dict]]) -> list[str]:
    """Exact reports of one seed must hash alike in every pass and every run
    of the same sources."""
    path = OUT / "digests" / source_id() / f"{workload}-{seed}.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    mismatches = []
    for records in passes:
        for rec in records:
            if rec["digest"] is None:
                continue
            if known.setdefault(rec["key"], rec["digest"]) != rec["digest"]:
                rec["failed"] = rec["ops"]
                mismatches.append(rec["key"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, sort_keys=True), encoding="utf-8")
    return mismatches


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 commands beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    return 100 * (n - 10) / n, ordered[n - 11]


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            trace_commands: int | None = None) -> tuple[dict, dict]:
    """One benchmark run: (result line, details line)."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    job = {"workload": workload, "seed": seed, "trace": False,
           "outdir": str(OUT / f"reports-{tag}")}
    info = {"workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha()}
    if not trace:
        setups = [setup_seconds(deadline) for _ in range(SETUP_PROBES)]
        base = run_worker(dict(job, seconds=seconds), tag, deadline)
        passes = [base["records"]]
        records = base["records"]
        latencies = [r["latency"] for r in records]
        walls = [r["wall"] for r in records]
        percentile, tail_s = tail(latencies)
        metrics = {
            "setup_s": (statistics.median(cpu for cpu, _ in setups), "s"),
            "ops_per_s": (sum(r["ops"] - r["failed"] for r in records) / sum(latencies), "1/s"),
            "cmd_p50_s": (statistics.median(latencies), "s"),
            "cmd_tail_s": (tail_s, "s"),
            "peak_rss_mb": (base["prefix_rss_kb"] / 1024, "MB"),
        }
        info.update(tail_percentile=percentile, tail_samples=len(latencies),
                    rounds=records[-1]["round"] + 1,
                    cpu_s=sum(latencies), wall_s=sum(walls),
                    wall_p50_s=statistics.median(walls),
                    setup_wall_s=statistics.median(wall for _, wall in setups),
                    run_peak_rss_mb=base["peak_rss_kb"] / 1024)
    else:
        count = trace_commands or TRACE_COMMANDS[workload]
        trace_file = f"trace-{workload}-{seed}.jsonl"
        base = run_worker(dict(job, count=count), tag, deadline)
        traced = run_worker(dict(job, count=count, trace=True, stages=True,
                                 trace_path=str(OUT / trace_file)), tag, deadline)
        passes = [base["records"], traced["records"]]
        untraced_cpu = sum(r["latency"] for r in base["records"])
        traced_cpu = sum(r["latency"] for r in traced["records"])
        units = {"_s": "s", "_ms": "ms", "_us": "us", "_frac": "ratio", "_kbits": "kbit"}
        metrics = {}
        for name, value in {**traced["layers"], **traced["stages"]}.items():
            unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
            metrics[name] = (value, unit)
        metrics["cli.report_bytes"] = (sum(r["bytes"] for r in traced["records"]), "count")
        metrics["trace.overhead_frac"] = (traced_cpu / untraced_cpu - 1, "ratio")
        info.update(absent=traced["absent"], trace_file=trace_file)
    info.update(backend=base["backend"], qturan=base["qturan"])
    mismatches = check_digests(workload, seed, passes)
    attempted = sum(r["ops"] for records in passes for r in records)
    failed = sum(r["failed"] for records in passes for r in records)
    problems = [(r["key"], r["problems"]) for records in passes for r in records if r["problems"]]
    info.update(commands=sum(len(p) for p in passes), fail_frac=failed / attempted,
                digest_mismatches=mismatches, problems=problems[:10])
    result = {"correct": failed == 0 and not mismatches, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qturan" / "__init__.py").is_file():
        print(f"error: no qturan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
