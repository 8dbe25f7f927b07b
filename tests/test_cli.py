"""CLI behaviour: exit codes, report schema, determinism, CSV output."""

import csv
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from qturan import cli, turanian
from qturan.qcore import QBase
from qturan.cli import build_parser, parse_grid, parse_rational, run
from fractions import Fraction as F

SRC = Path(__file__).resolve().parent.parent / "src"


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_parse_grid_inclusive_endpoints():
    assert parse_grid("0.5:3:0.5") == [F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(3)]
    assert parse_grid("2") == [F(2)]
    assert parse_rational("7/3") == F(7, 3)


def test_verify_linearization_exit_and_report(tmp_path):
    out = tmp_path / "r.json"
    code = run(["verify", "--identity", "linearization", "--mu", "1",
                "--alpha", "1", "--beta", "1", "--q", "1/2", "--order", "30",
                "--mode", "exact", "--out", str(out)])
    assert code == 0
    report = read_json(out)
    assert set(report) == {"config", "verdicts", "residuals", "margins", "timing"}
    assert report["timing"] is None                  # exact mode: deterministic
    assert report["residuals"][0]["exact_zero"] is True
    assert report["config"]["q"] == "1/2"


def test_turanian_degenerate_zero_exit(tmp_path):
    out = tmp_path / "t.json"
    code = run(["turanian", "--family", "heine-f", "--mu", "1", "--alpha", "0",
                "--beta", "2", "--q", "1/2", "--order", "10", "--out", str(out)])
    assert code == 0
    report = read_json(out)
    assert report["verdicts"][0]["verdict"] == "zero"
    # one margin row per coefficient
    assert len(report["margins"]) == 11


def test_scan_caseb_suite(tmp_path):
    out = tmp_path / "s.json"
    csv_path = tmp_path / "s.csv"
    code = run(["scan", "--family", "g", "--a", "2,3", "--b", "1,2",
                "--q", "1/2", "--mu-grid", "0.5:3:0.5", "--alpha", "1",
                "--beta", "2", "--order", "25",
                "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    report = read_json(out)
    assert len(report["verdicts"]) == 6
    assert all(v["matches_expected"] for v in report["verdicts"])
    assert all(v["decided_by"] == "interval" and v["interval_bits"] == 100
               for v in report["verdicts"])
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("family,mu,alpha,beta,q,verdict")
    assert len(lines) == 7


def test_exact_reports_are_byte_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        run(["scan", "--family", "heine-f", "--q", "1/2",
             "--mu-grid", "1:2:1", "--alpha", "1", "--beta", "1",
             "--order", "15", "--out", str(p)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_off_grid_parameter_rejected(capsys):
    code = run(["turanian", "--family", "heine-f", "--mu", "1/3",
                "--alpha", "1", "--beta", "1", "--q", "1/2", "--order", "10"])
    assert code == 2
    err = capsys.readouterr().err
    assert "half-integer grid" in err


def test_non_contracting_rho_tail_names_q_the_terms_and_float_mode(capsys, tmp_path,
                                                                   monkeypatch):
    argv = ["turanian", "--family", "heine-f-tilde", "--q", "99/100", "--mu", "1/2",
            "--alpha", "1/2", "--beta", "3/2", "--order", "4"]
    out = tmp_path / "t.json"
    assert run([*argv, "--out", str(out)]) == 0
    report = read_json(out)["verdicts"][0]
    assert report["verdict"] == "all-strictly-pos" and report["decided_by"] == "interval"
    # past the term cap the point is refused before any product is formed
    def no_product(*args):
        raise AssertionError("an infinite product was formed")

    monkeypatch.setattr(turanian, "_qpoch_inf_interval", no_product)
    assert run([*argv[:4], "9999/10000", *argv[5:]]) == 2
    err = capsys.readouterr().err
    assert "q = 9999/10000" in err and "N = 785251" in err and "--mode float" in err
    # a float certificate at q = 99/100 encloses rho's products on q's rational value
    monkeypatch.undo()
    assert run([*argv, "--mode", "float", "--out", str(out)]) == 0
    assert read_json(out)["verdicts"][0]["verdict"] == "all-strictly-pos"


@pytest.mark.parametrize("mu,decided_by,normalization", [
    ("1", "interval", "scaled by Gamma_q(mu+alpha)*Gamma_q(mu+beta); x^m basis"),
    ("1/3", "float", "absolute x^m coefficients"),
])
def test_float_tilde_margins_use_the_verdicts_normalization(tmp_path, mu, decided_by,
                                                            normalization):
    # at mu = 1 Delta_0 is 3/7 scaled by Gamma_q(2) Gamma_q(3) = 3/2, 2/7 unscaled
    out = tmp_path / "t.json"
    assert run(["turanian", "--family", "heine-f-tilde", "--q", "1/2", "--mu", mu,
                "--alpha", "1", "--beta", "2", "--order", "5", "--mode", "float",
                "--out", str(out)]) == 0
    report = read_json(out)
    verdict = report["verdicts"][0]
    assert (verdict["decided_by"], verdict["normalization"]) == (decided_by, normalization)
    assert report["margins"][0]["coefficient"] == verdict["coeff0"]
    if mu == "1":
        assert verdict["coeff0"] == "0.42857142857142857142857142857142857142857142857143"


def test_rho_rounds_start_at_the_terms_the_tail_bound_needs(tmp_path):
    # q = 19/20 needs 59 terms: more than the default 48, few enough to certify exactly
    out = tmp_path / "t.json"
    assert run(["turanian", "--family", "heine-f-tilde", "--q", "19/20", "--mu", "1/2",
                "--alpha", "1/2", "--beta", "3/2", "--order", "4", "--out", str(out)]) == 0
    report = read_json(out)["verdicts"][0]
    assert report["verdict"] == "all-strictly-pos" and report["decided_by"] == "interval"


def test_qbessel_at_a_negative_integer_alpha(capsys):
    for family, value in (("qbessel-j1", "-0.52676273878616330360624808208758829118579530828333"),
                          ("qbessel-j2", "-0.83728271116767853310187283040730718004777001947001")):
        assert run(["eval", "--family", family, "--alpha", "-1", "--y", "1", "--q", "1/2",
                    "--mode", "float"]) == 0
        assert capsys.readouterr().out.strip() == value


def test_p_form_guarantees_half_grid(tmp_path):
    code = run(["verify", "--identity", "finite-sum", "--nu", "1/2",
                "--eta", "3/2", "--p", "3/4", "--m", "8", "--mode", "exact"])
    assert code == 0


def test_conditions_command(tmp_path):
    out = tmp_path / "c.json"
    code = run(["conditions", "--a", "2,3", "--b", "1,2", "--q", "1/2",
                "--out", str(out)])
    assert code == 0
    rec = read_json(out)["verdicts"][0]
    assert rec["applies_case_b"] is True
    assert rec["c"] == ["3", "7"]


def test_conditions_command_accepts_zero_parameters(tmp_path, capsys):
    # a zero entry of b gives d_1 = 0: no majorization witness is searched
    # for, and the chain case the g certificates use is still reported
    out = tmp_path / "c.json"
    code = run(["conditions", "--a", "1,2", "--b", "0,1", "--q", "1/2",
                "--out", str(out)])
    assert code == 0
    assert "chain case: b; majorization witness: False" in capsys.readouterr().out
    rec = read_json(out)["verdicts"][0]
    assert rec["d"] == ["0", "1"]
    assert rec["applies_case_b"] is True
    assert rec["via_majorization"] is False and rec["witness_subvector"] is None


def test_verify_float_tolerance_gate():
    # at alpha = 1/2 the residual is rounding only, about 1.7e-51
    code = run(["verify", "--identity", "connection", "--alpha", "1/2",
                "--y", "1", "--q", "1/2", "--mode", "float", "--tol", "1e-30"])
    assert code == 0
    code = run(["verify", "--identity", "connection", "--alpha", "1/2",
                "--y", "1", "--q", "1/2", "--mode", "float", "--tol", "1e-60"])
    assert code == 1


def test_verify_refuses_a_series_past_the_order_cap(capsys):
    # a cut series read 1.025 here, a failed identity from a truncation
    code = run(["verify", "--identity", "connection", "--alpha", "0",
                "--y", "1999999/1000000", "--q", "1/2", "--mode", "float"])
    assert code == 2
    assert "at most 200000" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1e-30", "0", "0/7"])
def test_verify_refuses_a_tolerance_not_above_zero(tol, tmp_path, capsys, monkeypatch):
    """A tolerance <= 0 would fail every float check, so it is a usage
    error, refused before the identity is computed or a report written."""
    def never(*_):
        raise AssertionError("computed despite a refused --tol")

    monkeypatch.setitem(cli._VERIFY, "rahman", cli._VERIFY["rahman"]._replace(run=never))
    out, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    assert run(["verify", "--identity", "rahman", "--q", "1/2", "--nu", "1", "--eta", "1",
                "--mode", "float", f"--tol={tol}", "--out", str(out),
                "--csv", str(csv_path)]) == 2
    assert f"error: --tol must be positive, got {tol}" in capsys.readouterr().err
    assert not out.exists() and not csv_path.exists()


def test_report_flattens_to_csv(tmp_path):
    out = tmp_path / "scan.json"
    run(["scan", "--family", "g", "--a", "1,1,1", "--b", "2,2", "--q", "1/2",
         "--mu-grid", "1:2:1", "--alpha", "1", "--beta", "1", "--order", "15",
         "--out", str(out)])
    csv_path = tmp_path / "flat.csv"
    code = run(["report", "--input", str(out), "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "kind,name,mu,alpha,beta,q,value,ok"
    assert len(lines) == 3


def test_scan_empty_grid_is_an_error(capsys):
    code = run(["scan", "--family", "heine-f", "--q", "1/2", "--mu-grid", "3:1:1",
                "--alpha", "1", "--beta", "1", "--order", "5"])
    assert code == 2
    assert "empty" in capsys.readouterr().err


def test_scan_lower_parameter_collision_is_an_error(capsys):
    # b_1 + mu = 0: (q^(b+mu); q)_n vanishes, in every shifted series
    code = run(["scan", "--family", "g", "--a", "2,3", "--b", "0,2", "--q", "1/2",
                "--mu-grid", "0", "--alpha-grid", "1", "--beta-grid", "1",
                "--order", "10"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: lower parameter")


def test_python_m_qturan_runs_the_cli(tmp_path):
    out = tmp_path / "r.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "qturan", "scan", "--family", "heine-f", "--q", "1/2",
         "--mu-grid", "1", "--alpha", "1", "--beta", "1", "--order", "8",
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "1/1 points match" in done.stdout
    assert read_json(out)["verdicts"][0]["verdict"] == "all-strictly-neg"


def test_env_var_sets_default_digits(monkeypatch, tmp_path):
    out = tmp_path / "e.json"
    argv = ["eval", "--family", "heine-f", "--mu", "1", "--x", "1/4", "--q", "1/2",
            "--mode", "float", "--out", str(out)]
    monkeypatch.setenv("QTURAN_DIGITS", "35")
    assert run(argv) == 0
    assert read_json(out)["config"]["digits"] == 35
    assert run([*argv, "--digits", "20"]) == 0          # a typed value wins
    assert read_json(out)["config"]["digits"] == 20
    monkeypatch.delenv("QTURAN_DIGITS")
    assert run(argv) == 0
    assert read_json(out)["config"]["digits"] == 50


def test_env_var_rejects_non_integer_digits(monkeypatch, capsys):
    monkeypatch.setenv("QTURAN_DIGITS", "abc")
    code = run(["eval", "--family", "heine-f", "--mu", "1", "--x", "1/4",
                "--q", "1/2", "--mode", "float"])
    assert code == 2
    assert "QTURAN_DIGITS" in capsys.readouterr().err


def test_turanian_report_with_coefficients_above_4300_digits(tmp_path):
    out = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    code = run(["turanian", "--family", "g", "--a", "1,1,1", "--b", "2,2",
                "--q", "3/4", "--mu", "3/2", "--alpha", "1", "--beta", "3",
                "--order", "60", "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    report = read_json(out)
    assert report["verdicts"][0]["matches_expected"] is True
    longest = max(len(m["coefficient"]) for m in report["margins"])
    assert longest > 4300
    assert len(csv_path.read_text(encoding="utf-8").splitlines()) == 62


def test_negative_rational_is_given_with_an_equals_sign(capsys):
    # argparse reads a separate "-1/2" as an option name
    base = ["eval", "--family", "kummer", "--x", "3", "--order", "5"]
    with pytest.raises(SystemExit) as exc:
        run([*base, "--b-param", "-1/2"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    assert run([*base, "--b-param=-1/2"]) == 0
    assert capsys.readouterr().out.strip() == "-9571/35"


def test_eval_exact_value(capsys, tmp_path):
    code = run(["eval", "--family", "heine-f", "--mu", "1", "--x", "1/4",
                "--q", "1/2", "--order", "3", "--mode", "exact"])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    # 1 + 4/4 + (64/9)/16 + (4096/441)/64 at x = 1/4
    expect = F(1) + F(1) + F(64, 9) / 16 + F(4096, 441) / 64
    assert printed == str(expect)


def test_verify_non_integer_alpha_is_a_usage_error(capsys):
    base = ["--mu", "1", "--alpha", "3/2", "--beta", "1"]
    for argv in (["verify", "--identity", "linearization", *base, "--q", "1/2"],
                 ["verify", "--identity", "kummer", *base],
                 ["verify", "--identity", "q-to-1", *base, "--x", "1/2"]):
        assert run(argv) == 2
        assert "alpha must be a positive integer" in capsys.readouterr().err


def test_verify_missing_parameter_names_the_option(capsys):
    code = run(["verify", "--identity", "linearization", "--mu", "1", "--beta", "1",
                "--q", "1/2"])
    assert code == 2
    assert "--alpha is required for --identity linearization" in capsys.readouterr().err
    code = run(["verify", "--identity", "finite-sum", "--eta", "1", "--q", "1/2"])
    assert code == 2
    assert "--nu is required for --identity finite-sum" in capsys.readouterr().err


def test_eval_missing_parameter_names_the_option(capsys):
    code = run(["eval", "--family", "heine-f", "--x", "1/4", "--q", "1/2"])
    assert code == 2
    assert "--mu is required for --family heine-f" in capsys.readouterr().err
    code = run(["eval", "--family", "g", "--mu", "1", "--x", "1/4", "--q", "1/2",
                "--mode", "float"])
    assert code == 2
    assert "--a is required for --family g" in capsys.readouterr().err


def test_verify_integral_alpha_text_keeps_the_report(tmp_path):
    out = tmp_path / "k.json"
    code = run(["verify", "--identity", "kummer", "--mu", "3/2", "--alpha", "2",
                "--beta", "1/2", "--order", "12", "--out", str(out)])
    assert code == 0
    res = read_json(out)["residuals"][0]
    assert res["exact_zero"] is True
    assert res["label"] == "kummer-linearization(mu=3/2,alpha=2,beta=1/2)"


def test_order_zero_certificate_is_a_usage_error(capsys):
    # no coefficient m >= 1 to certify: the verdict would be vacuous
    code = run(["scan", "--family", "g", "--a", "2,3", "--b", "1,2", "--q", "1/2",
                "--mu-grid", "1", "--alpha", "1", "--beta", "1", "--order", "0"])
    assert code == 2
    assert "order >= 1" in capsys.readouterr().err
    code = run(["turanian", "--family", "heine-f", "--mu", "1", "--alpha", "1",
                "--beta", "1", "--q", "1/2", "--order", "0"])
    assert code == 2
    assert "order >= 1" in capsys.readouterr().err


def test_bad_numeric_options_name_the_option(capsys):
    point = ["--mu", "1", "--alpha", "1", "--beta", "1", "--q", "1/2"]
    for argv in (["turanian", "--family", "heine-f", *point, "--order", "-3"],
                 ["scan", "--family", "heine-f", "--mu-grid", "1", "--q", "1/2",
                  "--order", "-3"],
                 ["eval", "--family", "heine-f", "--mu", "1", "--x", "1/2", "--q", "1/2",
                  "--order", "-3"],
                 ["verify", "--identity", "linearization", *point, "--order", "-3"]):
        assert run(argv) == 2
        assert "--order must be an integer >= 0, got -3" in capsys.readouterr().err
    assert run(["verify", "--identity", "finite-sum", "--nu", "1", "--eta", "2",
                "--q", "1/2", "--m", "-1"]) == 2
    assert "--m must be an integer >= 0, got -1" in capsys.readouterr().err
    assert run(["eval", "--family", "heine-f", "--mu", "1", "--x", "1/2", "--q", "1/2",
                "--mode", "float", "--digits", "3"]) == 2
    assert "--digits must be an integer >= 10, got 3" in capsys.readouterr().err
    assert run(["verify", "--identity", "connection", "--alpha", "0", "--y", "1",
                "--q", "1/2", "--mode", "float", "--tol", "abc"]) == 2
    assert "--tol must be a number, got 'abc'" in capsys.readouterr().err


def test_options_a_subcommand_never_reads_are_refused(tmp_path, capsys):
    for argv in (["eval", "--family", "heine-f", "--mu", "1", "--x", "1/2", "--q", "1/2",
                  "--csv", str(tmp_path / "e.csv")],
                 ["conditions", "--a", "2,3", "--b", "1,2", "--q", "1/2",
                  "--csv", str(tmp_path / "c.csv")],
                 ["conditions", "--a", "2,3", "--b", "1,2", "--q", "1/2",
                  "--order", "5"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_writes_csv_for_every_identity(tmp_path):
    header = ["identity", "label", "mode", "exact_zero", "max_abs", "max_rel",
              "order_checked"]
    kummer, limit = tmp_path / "k.csv", tmp_path / "q.csv"
    assert run(["verify", "--identity", "kummer", "--mu", "1", "--alpha", "1",
                "--beta", "1", "--order", "8", "--csv", str(kummer)]) == 0
    rows = list(csv.reader(kummer.read_text(encoding="utf-8").splitlines()))
    assert rows[0] == header and len(rows) == 2
    assert rows[1][:4] == ["kummer", "kummer-linearization(mu=1,alpha=1,beta=1)",
                           "exact", "True"]
    code = run(["verify", "--identity", "q-to-1", "--mu", "1", "--alpha", "1",
                "--beta", "1", "--x", "1/2", "--mode", "float", "--q-sequence", "0.9,0.99",
                "--csv", str(limit)])
    assert code == 0
    rows = list(csv.reader(limit.read_text(encoding="utf-8").splitlines()))
    assert rows[0] == header and len(rows) == 3
    assert all(r[0] == "q-to-1" and r[2] == "float" for r in rows[1:])


def test_exact_eval_of_gamma_normalized_families_is_refused(capsys):
    for argv in (["eval", "--family", "heine-f-tilde", "--mu", "1", "--x", "1/2"],
                 ["eval", "--family", "g", "--a", "2,3", "--b", "1,2", "--mu", "1",
                  "--x", "1/2"]):
        assert run([*argv, "--q", "1/2", "--mode", "exact"]) == 2
        assert "use --mode float" in capsys.readouterr().err
        assert run([*argv, "--q", "1/2", "--mode", "float"]) == 0
        capsys.readouterr()


def test_verify_config_reports_the_mode_digits_and_order_that_ran(tmp_path):
    out = tmp_path / "v.json"
    base = ["--mu", "1", "--alpha", "1", "--beta", "1"]
    # kummer is exact rational arithmetic, at the default order 30
    assert run(["verify", "--identity", "kummer", *base, "--out", str(out)]) == 0
    cfg = read_json(out)["config"]
    assert (cfg["mode"], cfg["digits"], cfg["q"], cfg["order"]) == ("exact", None, None, 30)
    # the q -> 1 study runs in float mode at --digits whatever --mode says
    assert run(["verify", "--identity", "q-to-1", *base, "--x", "1/2", "--digits", "30",
                "--q-sequence", "0.9,0.99", "--out", str(out)]) == 0
    cfg = read_json(out)["config"]
    assert (cfg["mode"], cfg["digits"], cfg["q"]) == ("float", 30, None)
    # coefficient identities write the order they checked
    for argv, order in ((["--identity", "linearization", *base], 30),
                        (["--identity", "rahman", "--nu", "1", "--eta", "2", "--order", "7"], 7),
                        (["--identity", "finite-sum", "--nu", "1", "--eta", "2", "--m", "5"], 5),
                        (["--identity", "recqgamma", "--mu", "1", "--beta", "2", "--m", "4"], 4)):
        assert run(["verify", *argv, "--q", "1/2", "--out", str(out)]) == 0
        report = read_json(out)
        assert report["config"]["order"] == order == report["residuals"][0]["order_checked"]


def test_verify_refuses_options_q_to_1_and_kummer_do_not_use(tmp_path, capsys):
    base = ["--mu", "1", "--alpha", "1", "--beta", "1"]
    for identity, extra in (("kummer", []), ("q-to-1", ["--x", "1/2", "--mode", "float"])):
        for option, value in (("--q", "1/2"), ("--p", "1/2")):
            assert run(["verify", "--identity", identity, *base, *extra, option, value]) == 2
            assert f"{option} does not apply to --identity {identity}" in capsys.readouterr().err
    assert run(["verify", "--identity", "kummer", *base, "--mode", "float",
                "--out", str(tmp_path / "k.json")]) == 2
    assert "--mode float does not apply" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_refuses_a_typed_mode_or_digits_the_identity_ignores(tmp_path, capsys):
    base = ["--mu", "1", "--alpha", "1", "--beta", "1"]
    q_to_1 = ["verify", "--identity", "q-to-1", *base, "--x", "1/2",
              "--q-sequence", "0.9,0.99"]
    assert run([*q_to_1, "--mode", "exact"]) == 2
    assert ("--identity q-to-1 runs in float mode; --mode exact does not apply"
            in capsys.readouterr().err)
    assert run(["verify", "--identity", "kummer", *base, "--digits", "30"]) == 2
    assert ("--identity kummer is checked exactly; --digits does not apply"
            in capsys.readouterr().err)
    # what each identity does run in stays accepted when typed
    out = tmp_path / "v.json"
    assert run(["verify", "--identity", "kummer", *base, "--mode", "exact",
                "--out", str(out)]) == 0
    assert read_json(out)["config"]["mode"] == "exact"
    assert run([*q_to_1, "--mode", "float", "--digits", "30", "--out", str(out)]) == 0
    assert (read_json(out)["config"]["mode"], read_json(out)["config"]["digits"]) == ("float", 30)


def test_eval_kummer_refuses_a_base_mode_or_digits(tmp_path, capsys):
    # the 1F1 series is exact rational and has no base q
    kummer = ["eval", "--family", "kummer", "--b-param", "2", "--x", "1/2", "--order", "10"]
    for extra, message in ((["--q", "1/2"], "--q does not apply to --family kummer"),
                           (["--p", "1/2"], "--p does not apply to --family kummer"),
                           (["--mode", "float"], "--mode float does not apply"),
                           (["--digits", "30"], "--digits does not apply")):
        assert run([*kummer, *extra, "--out", str(tmp_path / "k.json")]) == 2
        assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    out = tmp_path / "k.json"
    assert run([*kummer, "--mode", "exact", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "53032708543/40874803200\n"
    assert (read_json(out)["config"]["mode"], read_json(out)["config"]["digits"]) == ("exact", None)


def test_near_integer_float_g_shift_is_a_usage_error(capsys):
    point = ["turanian", "--family", "g", "--a", "2,3", "--b", "1,2", "--q", "1/2",
             "--mu", "1", "--beta", "1", "--order", "10", "--mode", "float"]
    assert run([*point, "--alpha", "1/100000000000"]) == 2
    assert "alpha must be a nonnegative integer" in capsys.readouterr().err
    assert run([*point, "--alpha", "1"]) == 0


def test_scan_alpha_and_beta_name_the_grid_options(tmp_path):
    # the README's scan command spells the grids --alpha and --beta
    point = ["scan", "--family", "g", "--a", "2,3", "--b", "1,2", "--q", "1/2",
             "--mu-grid", "0.5:1:0.5", "--order", "10"]
    short, long = tmp_path / "short.json", tmp_path / "long.json"
    assert run([*point, "--alpha", "1", "--beta", "2", "--out", str(short)]) == 0
    assert run([*point, "--alpha-grid", "1", "--beta-grid", "2", "--out", str(long)]) == 0
    report = read_json(short)
    assert short.read_bytes() == long.read_bytes()
    assert (report["config"]["alpha_grid"], report["config"]["beta_grid"]) == ("1", "2")
    assert [(v["alpha"], v["beta"]) for v in report["verdicts"]] == [("1", "2")] * 2


TIMED = {
    "eval": "eval --family heine-f --mu 1 --x 1/4 --q 1/2 --order 10",
    "turanian": "turanian --family heine-f --mu 1 --alpha 1 --beta 2 --q 1/2 --order 10",
    "conditions": "conditions --a 1,1,1 --b 2,2 --q 1/2",
    "verify": "verify --identity linearization --mu 1 --alpha 1 --beta 1 --q 1/2 --order 10",
    "scan": "scan --family heine-f --mu-grid 1:2:1 --q 1/2 --order 10",
}


@pytest.mark.parametrize("command", list(TIMED))
def test_timing_is_measured_in_float_mode(tmp_path, command):
    out = tmp_path / "r.json"
    argv = [*TIMED[command].split(), "--out", str(out)]
    assert run([*argv, "--mode", "float"]) == 0
    timing = read_json(out)["timing"]
    assert isinstance(timing, float) and timing > 0
    assert run([*argv, "--mode", "exact"]) == 0
    assert read_json(out)["timing"] is None


FLOAT_TABLES = {
    "scan": "scan --family g --a 2,3 --b 1,2 --q 1/2 --mu-grid 1/2:3/2:1/2 --order 10",
    "turanian": "turanian --family heine-f-tilde --mu 1/2 --alpha 1/2 --beta 2 --q 1/2 "
                "--order 8",
    "verify": "verify --identity connection --alpha 1/2 --y 3/2 --q 4/5",
}


@pytest.mark.parametrize("command", list(FLOAT_TABLES))
def test_csv_rows_are_report_records(tmp_path, command):
    out, table = tmp_path / "r.json", tmp_path / "r.csv"
    assert run([*FLOAT_TABLES[command].split(), "--mode", "float", "--out", str(out),
                "--csv", str(table)]) == 0
    report = read_json(out)
    header, *rows = list(csv.reader(table.read_text(encoding="utf-8").splitlines()))
    records = {"scan": report["verdicts"], "verify": report["residuals"],
               "turanian": [{**report["verdicts"][0], **margin}
                            for margin in report["margins"]]}[command]
    assert rows and len(rows) == len(records)
    assert [[("" if rec[key] is None else str(rec[key])) for key in header]
            for rec in records] == rows


def test_scan_at_an_upper_gamma_pole_is_an_error(capsys):
    # a + mu = 0 puts Gamma_q(a + mu) at its pole; the Turanian has no value to certify
    code = run(["scan", "--family", "g", "--a", "0", "--b", "1", "--q", "1/2",
                "--mu-grid", "0", "--alpha", "1", "--beta", "1", "--order", "10"])
    assert code == 2
    assert "Gamma_q pole" in capsys.readouterr().err


# -- one parser per process --------------------------------------------------

LINEARIZATION = ["verify", "--identity", "linearization", "--mu", "1", "--alpha", "2",
                 "--beta", "1", "--q", "1/2", "--order", "10", "--mode", "exact"]


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_repeated_runs_share_the_parser_and_nothing_else(tmp_path, capsys):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run([*LINEARIZATION, "--out", str(first)]) == 0
    # a run that argparse rejects, then one that fails in qturan
    with pytest.raises(SystemExit) as exc:
        run(["turanian", "--mu", "1", "--alpha", "1", "--beta", "1", "--q", "1/2"])
    assert exc.value.code == 2
    assert run(["verify", "--identity", "linearization", "--mu", "1", "--alpha", "1/2",
                "--beta", "1", "--q", "1/2", "--order", "10"]) == 2
    capsys.readouterr()
    assert run([*LINEARIZATION, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_options_of_one_run_do_not_leak_into_the_next(tmp_path):
    out = tmp_path / "s.json"
    scan = ["scan", "--family", "heine-f", "--q", "1/2", "--mu-grid", "1", "--alpha", "1",
            "--beta", "1", "--order", "8", "--out", str(out)]
    assert run([*scan, "--mode", "float", "--digits", "30"]) == 0
    assert (read_json(out)["config"]["mode"], read_json(out)["config"]["digits"]) == ("float", 30)
    assert run(scan) == 0
    assert (read_json(out)["config"]["mode"], read_json(out)["config"]["digits"]) == ("exact", None)


# -- file errors are usage errors (exit 2), not failed verdicts (exit 1) ------


def test_missing_report_input_is_an_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run(["report", "--input", str(missing), "--csv", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {missing}: No such file or directory\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("text, message", [
    ("not json", "is not a JSON report"),
    ('{"verdicts": 3}', "is not a qturan report"),
    ('{"verdicts": [], "residuals": [1]}', "is not a qturan report"),
    ("[]", "is not a qturan report"),
])
def test_malformed_report_input_is_an_error(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    assert run(["report", "--input", str(bad), "--csv", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} {message}") and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_unwritable_out_and_csv_are_errors(tmp_path, capsys):
    nowhere = tmp_path / "no" / "r.json"
    point = ["turanian", "--family", "heine-f", "--mu", "1", "--alpha", "1", "--beta", "1",
             "--q", "1/2", "--order", "5"]
    assert run([*point, "--out", str(nowhere)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {nowhere}: No such file or directory\n")
    assert run([*point, "--csv", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


@pytest.mark.parametrize("argv", [
    ["scan", "--family", "heine-f", "--mu-grid", "1", "--order", "4"],
    ["turanian", "--family", "heine-f", "--mu", "1", "--alpha", "1", "--beta", "1",
     "--order", "3"],
], ids=["scan", "turanian"])
def test_p_runs_label_the_point_with_q(tmp_path, argv):
    # --p 1/2 runs on the base q = 1/4: its records and rows read as --q 1/4's
    records = {}
    for base in (["--p", "1/2"], ["--q", "1/4"]):
        out, table = tmp_path / f"{base[0]}.json", tmp_path / f"{base[0]}.csv"
        assert run([*argv, *base, "--out", str(out), "--csv", str(table)]) == 0
        verdicts = read_json(out)["verdicts"]
        rows = list(csv.DictReader(table.read_text(encoding="utf-8").splitlines()))
        assert {v["q"] for v in verdicts} == {r["q"] for r in rows} == {"1/4"}
        records[base[0]] = (verdicts, rows)
    assert records["--p"] == records["--q"]


def test_q_and_p_together_are_an_error(capsys):
    assert run(["scan", "--family", "heine-f", "--q", "1/2", "--p", "1/3",
                "--mu-grid", "1", "--order", "3"]) == 2
    assert capsys.readouterr().err == "error: give the base via --q or --p, not both\n"


def test_malformed_q_sequence_entry_is_an_error(capsys):
    assert run(["verify", "--identity", "q-to-1", "--mu", "1", "--alpha", "1", "--beta", "1",
                "--x", "1/4", "--q-sequence", "0.9,abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse rational 'abc'") and "Traceback" not in err


@pytest.mark.parametrize("family", ["heine-f", "heine-f-tilde"])
@pytest.mark.parametrize("option", ["--a", "--b"])
def test_heine_families_refuse_parameter_vectors(capsys, family, option):
    for argv in (["turanian", "--mu", "1", "--alpha", "1", "--beta", "1"],
                 ["scan", "--mu-grid", "1"]):
        assert run([*argv, "--family", family, option, "1,2", "--q", "1/2",
                    "--order", "3"]) == 2
        assert capsys.readouterr().err == (
            f"error: {option} does not apply to --family {family}\n")


# -- which options each selection reads ---------------------------------------

# A valid command line of each selection, with the options it requires and,
# written out here independently of qturan.cli, the ones it does not read.
SELECTIONS = {
    ("eval", "heine-f"): ("--mu 1 --x 1/4 --q 1/2 --order 10", "mu x",
                          "nu alpha a b b-param y"),
    ("eval", "heine-f-tilde"): ("--mu 1 --x 1/4 --q 1/2 --order 10 --mode float", "mu x",
                                "nu alpha a b b-param y"),
    ("eval", "g"): ("--a 2,3 --b 1,2 --mu 1 --x 1/4 --q 1/2 --order 10 --mode float",
                    "a b mu x", "nu alpha b-param y"),
    ("eval", "qbessel-j1"): ("--alpha 0 --y 1 --q 1/2 --order 10 --mode float", "alpha y",
                             "mu nu a b b-param x"),
    ("eval", "qbessel-j2"): ("--alpha 0 --y 1 --q 1/2 --order 10 --mode float", "alpha y",
                             "mu nu a b b-param x"),
    ("eval", "qbessel-i1"): ("--nu 1 --y 1 --q 1/2 --order 10 --mode float", "nu y",
                             "mu alpha a b b-param x"),
    ("eval", "kummer"): ("--b-param 2 --x 1/2 --order 10", "b-param x",
                         "mu nu alpha a b y"),
    ("verify", "rahman"): ("--nu 1 --eta 2 --q 1/2 --order 5", "nu eta",
                           "mu alpha beta x y m q-sequence"),
    ("verify", "finite-sum"): ("--nu 1 --eta 2 --q 1/2 --m 3", "nu eta",
                               "mu alpha beta x y q-sequence order"),
    ("verify", "connection"): ("--alpha 0 --y 1 --q 1/2 --mode float", "alpha y",
                               "nu eta mu beta x m q-sequence"),
    ("verify", "linearization"): ("--mu 1 --alpha 1 --beta 1 --q 1/2 --order 5",
                                  "mu alpha beta", "nu eta x y m q-sequence"),
    ("verify", "kummer"): ("--mu 1 --alpha 1 --beta 1 --order 5", "mu alpha beta",
                           "nu eta x y m q-sequence tol"),
    ("verify", "recqgamma"): ("--mu 1 --beta 1 --q 1/2 --m 3", "mu beta",
                              "nu eta alpha x y q-sequence order"),
    ("verify", "q-to-1"): ("--mu 1 --alpha 1 --beta 1 --x 1/2 --q-sequence 0.9,0.99",
                           "mu alpha beta x", "nu eta y m tol order"),
    ("turanian", "g"): ("--a 2,3 --b 1,2 --mu 1 --alpha 1 --beta 1 --q 1/2 --order 5",
                        "a b", ""),
    ("scan", "g"): ("--a 2,3 --b 1,2 --mu-grid 1 --q 1/2 --order 5", "a b", ""),
}
VALUES = {"a": "1,2", "b": "1,2", "m": "5", "tol": "1e-3", "q-sequence": "0.9", "digits": "30"}
POINT = "--mu 1 --alpha 1 --beta 1 --q 1/2 --order 5"
# exact runs given --digits or --tol, which only float mode reads
EXACT_RUNS = [
    ("eval --family heine-f --mu 1 --x 1/4 --q 1/2 --order 10", "digits"),
    (f"turanian --family heine-f {POINT}", "digits"),
    ("scan --family heine-f --mu-grid 1 --q 1/2 --order 5", "digits"),
    ("conditions --a 2,3 --b 1,2 --q 1/2", "digits"),
    (f"verify --identity linearization {POINT}", "digits"),
    (f"verify --identity linearization {POINT}", "tol"),
]
IGNORED = [(f"{command} --{'identity' if command == 'verify' else 'family'} {name} {base}",
            option)
           for (command, name), (base, _, ignored) in SELECTIONS.items()
           for option in ignored.split()] + EXACT_RUNS


@pytest.mark.parametrize("line, option", IGNORED,
                         ids=[f"{line.split()[2]}--{option}" for line, option in IGNORED])
def test_an_option_the_selection_does_not_read_is_refused(tmp_path, capsys, line, option):
    out = tmp_path / "r.json"
    assert run([*line.split(), f"--{option}", VALUES.get(option, "3"),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"--{option} does not apply" in err
    assert not out.exists()


REQUIRED = [(command, name, base, option)
            for (command, name), (base, required, _) in SELECTIONS.items()
            for option in required.split()]


@pytest.mark.parametrize("command, name, base, option", REQUIRED,
                         ids=[f"{c}-{n}--{o}" for c, n, _, o in REQUIRED])
def test_a_missing_required_option_is_refused(tmp_path, capsys, command, name, base, option):
    selector = "--identity" if command == "verify" else "--family"
    tokens = base.split()
    at = tokens.index(f"--{option}")
    del tokens[at:at + 2]
    out = tmp_path / "r.json"
    assert run([command, selector, name, *tokens, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --{option} is required for {selector} {name}\n")
    assert not out.exists()
    assert run([command, selector, name, *base.split(), "--out", str(out)]) in (0, 1)
    assert out.exists()


FLOAT_ONLY = [("eval", "heine-f-tilde"), ("eval", "g"), ("eval", "qbessel-j1"),
              ("eval", "qbessel-j2"), ("eval", "qbessel-i1"), ("verify", "connection")]


@pytest.mark.parametrize("command, name", FLOAT_ONLY, ids=[n for _, n in FLOAT_ONLY])
def test_float_only_selections_run_in_float_without_a_typed_mode(tmp_path, capsys,
                                                                 command, name):
    # no exact value: an untyped --mode runs float, a typed exact one is refused
    base = SELECTIONS[command, name][0].replace("--mode float", "").split()
    selector = "--identity" if command == "verify" else "--family"
    out = tmp_path / "r.json"
    assert run([command, selector, name, *base, "--mode", "exact", "--out", str(out)]) == 2
    assert "use --mode float" in capsys.readouterr().err
    assert not out.exists()
    assert run([command, selector, name, *base, "--out", str(out)]) == 0
    assert read_json(out)["config"]["mode"] == "float"


def _benchmark_workloads():
    """bench/workloads.py, imported by path and only read."""
    path = SRC.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("qturan_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module           # dataclasses look the module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("workload", ["exact-sign", "exact-identity", "float-checks"])
def test_round_0_of_every_benchmark_workload_exits_0(tmp_path, capsys, workload):
    workloads = _benchmark_workloads()
    commands = [cmd for cmd in itertools.takewhile(lambda c: c.round == 0,
                                                   workloads.stream(workload, 1))
                if cmd.argv]
    assert commands
    for cmd in commands:
        assert run([*cmd.argv, "--out", str(tmp_path / "r.json")]) == 0, cmd.key


def test_an_empty_q_sequence_is_an_error(tmp_path, capsys):
    # a typed sequence is never replaced by the default, so an empty one has no q to study
    out = tmp_path / "q.json"
    assert run(["verify", "--identity", "q-to-1", "--mu", "1", "--alpha", "1", "--beta", "1",
                "--x", "1/4", "--q-sequence", ",", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --q-sequence names no q\n"
    assert not out.exists()


def test_a_q_sequence_of_one_q_is_an_error(tmp_path, capsys):
    # one q gives no pair of deviations, so "decreasing" would hold vacuously
    out = tmp_path / "q.json"
    assert run(["verify", "--identity", "q-to-1", "--mu", "1", "--alpha", "1", "--beta", "1",
                "--x", "1/2", "--q-sequence", "0.9", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --q-sequence names one q (0.9); a q->1 study compares the deviations "
        "of at least two\n")
    assert not out.exists()


def test_report_leaves_the_point_of_a_residual_row_empty(tmp_path):
    out, flat = tmp_path / "v.json", tmp_path / "v.csv"
    assert run(["verify", "--identity", "linearization", "--mu", "1", "--alpha", "1",
                "--beta", "1", "--q", "1/2", "--order", "5", "--out", str(out)]) == 0
    assert run(["report", "--input", str(out), "--csv", str(flat)]) == 0
    rows = list(csv.reader(flat.read_text(encoding="utf-8").splitlines()))
    assert rows == [["kind", "name", "mu", "alpha", "beta", "q", "value", "ok"],
                    ["residual", "linearization(mu=1,alpha=1,beta=1)", "", "", "", "", "0",
                     "True"]]


def _fresh_qturan(argv, cwd):
    """Run ``python -m qturan argv`` in a new interpreter, at mpmath's default
    precision and without QTURAN_DIGITS; returns the rows of its --csv file."""
    env = {k: v for k, v in os.environ.items() if k != "QTURAN_DIGITS"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-m", "qturan", *argv, "--csv", "out.csv"],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=300)
    assert done.returncode == 0, done.stderr
    with open(Path(cwd) / "out.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _agreeing_digits(text, ref):
    with mpmath.workdps(80):
        return -mpmath.log10(abs(mpmath.mpf(text) / ref - 1))


def test_fresh_process_float_outputs_meet_their_digits(tmp_path):
    rows = _fresh_qturan(["scan", "--family", "heine-f", "--q", "1/4", "--mu-grid", "2:3:1",
                          "--alpha-grid", "3", "--beta-grid", "1", "--order", "60",
                          "--mode", "float"], tmp_path)
    assert [r["mu"] for r in rows] == ["2", "3"]
    for row in rows:
        # decided on intervals: the exact certificate's lower bound, cut toward 0
        spec = turanian.TuranianSpec(turanian.Family.HEINE_F, F(row["mu"]), F(3), F(1),
                                     QBase.exact(q=F(1, 4)), 60)
        bound = turanian.sign_certificate(spec).min_margin.to_fraction()
        exact = min(abs(c.to_fraction()) for c in turanian.turanian_series(spec).coeffs[1:])
        with mpmath.workdps(80):
            ref = mpmath.mpf(bound.numerator) / bound.denominator
        assert _agreeing_digits(row["min_margin"], ref) >= 45
        assert F(row["min_margin"]) <= bound <= exact
    # off the half-integer grid the float classifier decides on 50-digit series
    rows = _fresh_qturan(["scan", "--family", "heine-f", "--q", "1/4", "--mu-grid", "7/3",
                          "--alpha-grid", "3", "--beta-grid", "1", "--order", "60",
                          "--mode", "float"], tmp_path)
    spec = turanian.TuranianSpec(turanian.Family.HEINE_F, F(7, 3), F(3), F(1),
                                 QBase.floating(F(1, 4), 80), 60)
    ref = min(abs(c) for c in turanian.turanian_series(spec).coeffs[1:]).val
    assert _agreeing_digits(rows[0]["min_margin"], ref) >= 45
    rows = _fresh_qturan(["verify", "--identity", "q-to-1", "--mu", "3/2", "--alpha", "2",
                          "--beta", "1/2", "--x", "1/4"], tmp_path)
    assert rows[0]["label"] == "q-to-1(q=0.9)"
    with mpmath.workdps(80):
        ref = mpmath.mpf("0.53636961653188624810418126127555722624048686202112")
    assert _agreeing_digits(rows[0]["max_abs"], ref) >= 45


def test_python_m_qturan_help_exits_0():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "qturan", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ")


@pytest.mark.parametrize("argv, message", [
    (["conditions", "--a", ",", "--b", "1", "--q", "1/2"],
     "parameter vectors a and b must not be empty"),
    (["conditions", "--a", "1", "--b", ",", "--q", "1/2"],
     "parameter vectors a and b must not be empty"),
    (["verify", "--identity", "q-to-1", "--mu", "0", "--alpha", "1", "--beta", "1",
      "--x", "1/2"], "1F1 bottom parameter pole at b=0"),
    (["verify", "--identity", "q-to-1", "--mu", "1/2", "--alpha", "1", "--beta=-3/2",
      "--x", "1/2"], "1F1 bottom parameter pole at b=-1"),
    (["verify", "--identity", "q-to-1", "--mu", "1", "--alpha", "1", "--beta", "1",
      "--x", "1000", "--q-sequence", "0.9999,0.99999"],
     "1F1(1; b; x) at b=2, x=1000.0 has not converged after 700 terms"),
], ids=["empty-a", "empty-b", "q-to-1-mu-0", "q-to-1-beta--3/2", "q-to-1-unconverged-1f1"])
def test_empty_vectors_and_1f1_poles_are_usage_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "r.json"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
