"""Tests of the benchmark itself: metric coverage, the gate, the tracer."""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Command  # noqa: E402

SCAN = ("scan", "--family", "heine-f", "--q", "1/2", "--mu-grid", "1:2:1",
        "--alpha-grid", "1", "--beta-grid", "2", "--order", "8", "--mode", "exact")
POINTS = [["1", "1", "2"], ["2", "1", "2"]]


def _units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _emitted(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_tiny_run_emits_every_metric():
    result, info = run.measure("exact-identity", 0, 0.2, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _emitted(result) == _units("end_to_end")
    assert info["tail_samples"] >= 11

    result, info = run.measure("exact-identity", 0, 0.2, trace=True, trace_commands=4)
    assert result["correct"] and info["absent"] == []
    assert _emitted(result) == _units("per_layer")


def test_gate_counts_wrong_expectation(tmp_path):
    heine = {"kind": "sign", "family": "heine-f", "case": None, "points": POINTS}
    right = worker.execute(Command("right", 2, heine, argv=SCAN), 0, tmp_path)
    assert right["failed"] == 0, right["problems"]

    tilde = dict(heine, family="heine-f-tilde")        # claims positive coefficients
    wrong = worker.execute(Command("wrong", 2, tilde, argv=SCAN), 1, tmp_path)
    assert wrong["failed"] == 2

    spot_argv = ("turanian", "--family", "heine-f", "--q", "1/2", "--mu", "1", "--alpha", "1",
                 "--beta", "1", "--order", "4")
    spot = dict(heine, points=[["1", "1", "1"]], coeffs=5, spot={"m": 1, "value": "-20/22"})
    bad_spot = worker.execute(Command("spot", 1, spot, argv=spot_argv, csv=True), 2, tmp_path)
    assert bad_spot["failed"] == 1
    assert list(tmp_path.iterdir()) == []              # reports are removed after checking

    failed, _ = gate.check(Command("margin", 1, {"kind": "margin", "floor": "1e-30"},
                                   call="turan-point"), {"ok": True, "margin": "1e-40"})
    assert failed == 1


def _qturan_state() -> dict:
    from qturan.series import TruncatedSeries

    state = {(name, attr): id(obj) for name, mod in sys.modules.items()
             if name == "qturan" or name.startswith("qturan.")
             for attr, obj in vars(mod).items()}
    state.update({("TruncatedSeries", k): id(v) for k, v in vars(TruncatedSeries).items()})
    return state


def test_tracer_leaves_qturan_unpatched(tmp_path):
    import qturan.cli

    before = _qturan_state()
    with Tracer() as tracer:
        assert _qturan_state() != before
        tracer.command = 0
        rc = qturan.cli.run(list(SCAN) + ["--out", str(tmp_path / "r.json")])
        tracer.command = 1
        checks = worker.cm_mc("1", 2, 0)
    assert rc == 0 and checks == {"cm": True, "mc": True}
    assert _qturan_state() == before
    metrics = tracer.metrics(wall=1.0)
    assert metrics["turanian.cert_calls"] == 2
    # two scan points, then the Turanian series cm_mc checks
    assert metrics["series.cauchy_calls"] == 2 * 2 + 2
    assert metrics["series.build_calls"] == 2 * 4 + 4
    names = {tracer.names[s[0]] for s in tracer.spans}
    assert {"cli.run", "turanian._classify_exact", "analysis.complete_monotonicity_check",
            "series.TruncatedSeries.eval"} <= names


def test_tracer_records_missing_private_name_as_absent(monkeypatch):
    from qturan import turanian

    monkeypatch.delattr(turanian, "_rho_interval")
    with Tracer() as tracer:
        pass
    assert tracer.absent == ["turanian._rho_interval"]
    assert tracer.metrics(wall=1.0)["turanian.rho_calls"] == 0
