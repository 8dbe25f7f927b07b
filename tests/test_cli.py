"""CLI behaviour: exit codes, report schema, determinism, CSV output."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qturan import turanian
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
    assert all(v["decided_by"] == "interval" and v["exact_fallbacks"] == 0
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
            "--alpha", "1/2", "--beta", "1", "--order", "4"]
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
    assert run([*argv, "--mode", "float", "--out", str(out)]) == 0
    assert read_json(out)["verdicts"][0]["verdict"] == "all-strictly-pos"


def test_rho_rounds_start_at_the_terms_the_tail_bound_needs(tmp_path):
    # q = 19/20 needs 59 terms: more than the default 48, few enough to certify exactly
    out = tmp_path / "t.json"
    assert run(["turanian", "--family", "heine-f-tilde", "--q", "19/20", "--mu", "1/2",
                "--alpha", "1/2", "--beta", "1", "--order", "4", "--out", str(out)]) == 0
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


def test_verify_float_tolerance_gate():
    code = run(["verify", "--identity", "connection", "--alpha", "0",
                "--y", "1", "--q", "1/2", "--mode", "float", "--tol", "1e-30"])
    assert code == 0
    code = run(["verify", "--identity", "connection", "--alpha", "0",
                "--y", "1", "--q", "1/2", "--mode", "float", "--tol", "1e-60"])
    assert code == 1


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
    assert "--mu is required for family heine-f" in capsys.readouterr().err
    code = run(["eval", "--family", "g", "--mu", "1", "--x", "1/4", "--q", "1/2",
                "--mode", "float"])
    assert code == 2
    assert "--a and --b are required for family g" in capsys.readouterr().err


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


def test_conditions_timing_is_measured_in_float_mode(tmp_path):
    out = tmp_path / "c.json"
    argv = ["conditions", "--a", "1,1,1", "--b", "2,2", "--q", "1/2", "--out", str(out)]
    assert run([*argv, "--mode", "float"]) == 0
    timing = read_json(out)["timing"]
    assert isinstance(timing, float) and timing > 0
    assert run([*argv, "--mode", "exact"]) == 0
    assert read_json(out)["timing"] is None


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
