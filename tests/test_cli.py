import json

import numpy as np
import pytest

from lacsum.cli import main
from lacsum.serialize import load_json, spectrum_from_dict


def run(argv):
    return main(argv)


def test_gen_and_partial_sum(tmp_path, capsys):
    spec = tmp_path / "f.json"
    assert run(["gen", "--family", "random_decay", "--N", "3", "--B", "3", "--seed", "5", "--out", str(spec)]) == 0
    s = spectrum_from_dict(load_json(spec))
    assert s.dimension == 3 and s.bandwidth == (3, 3, 3)
    out = tmp_path / "ps.json"
    assert run(["partial-sum", "--spec", str(spec), "--n", "2", "2", "2", "--grid", "8", "--out", str(out)]) == 0
    doc = load_json(out)
    assert doc["L"] == [8, 8, 8]
    capsys.readouterr()


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--family", "random_decay", "--N", "2", "--B", "4", "--seed", "9", "--out"]
    assert run(argv + [str(a)]) == 0
    assert run(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_partial_sum_csv_slice(tmp_path):
    spec = tmp_path / "f.json"
    run(["gen", "--family", "single_mode", "--N", "2", "--B", "3", "--mode", "1", "2", "--out", str(spec)])
    out = tmp_path / "slice.csv"
    assert run(["partial-sum", "--spec", str(spec), "--n", "3", "3", "--grid", "8",
                "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,re,im"
    assert len(lines) == 65


def test_maximal_command(tmp_path):
    spec = tmp_path / "f.json"
    run(["gen", "--family", "random_decay", "--N", "3", "--B", "4", "--seed", "3", "--out", str(spec)])
    out = tmp_path / "max.json"
    rc = run(
        ["maximal", "--spec", str(spec), "--Jk", "1", "--q", "2", "--lambda-count", "3",
         "--free-cap", "6", "--weight", "product", "--grid", "16", "--out", str(out)]
    )
    assert rc == 0
    doc = load_json(out)
    assert doc["ratio"] > 0
    assert len(doc["weak_type"]["alphas"]) == len(doc["weak_type"]["ratios"])
    assert out.with_suffix(".csv").exists()


def test_decompose_command(tmp_path):
    spec = tmp_path / "f.json"
    run(["gen", "--family", "random_decay", "--N", "3", "--B", "4", "--seed", "4", "--out", str(spec)])
    out = tmp_path / "dec.json"
    rc = run(["decompose", "--spec", str(spec), "--free-axes", "2", "3", "--n", "4", "5", "3",
              "--grid", "16", "--out", str(out)])
    assert rc == 0
    doc = load_json(out)
    assert doc["max_reassembly_error"] <= 1e-10
    assert len(doc["term_l2"]) == 4


def test_verify_abel(capsys):
    assert run(["verify", "abel", "--nu", "3", "--n", "4", "--trials", "25", "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_abs_difference"] <= 1e-10
    assert doc["trials"] == 25


def test_verify_identities(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(
        "abel_trials = 5\ntelescope_cases = 3\ndecompose_cases = 3\nshell_spectra = 1\nvanishing_box = 8\n"
    )
    assert run(["verify", "identities", "--config", str(cfgfile), "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True


def test_converge_command(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(
        "lambda_count = 3\nbandwidth = 4,5,5\ngrid = 16,20,20\nlevels = 2,4\n"
        "free_cap = 5\ntrials = 1\nbeta = 3.0\n"
    )
    out = tmp_path / "conv.json"
    rc = run(["converge", "--config", str(cfgfile), "--seed", "2", "--out", str(out), "--format", "csv"])
    assert rc == 0
    doc = load_json(out)
    assert doc["passed"] is True
    csv_lines = out.with_suffix(".csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 1 * 2  # header + trials x levels


def test_maximal_suite_command(tmp_path):
    cfgfile = tmp_path / "m.cfg"
    cfgfile.write_text(
        "lambda_count = 3\nbandwidth = 4,6,6\ngrid = 16,24,24\ncap_schedule = 3,5,6\ntrials = 1\n"
    )
    out = tmp_path / "max.json"
    rc = run(["maximal-suite", "--config", str(cfgfile), "--seed", "2", "--out", str(out)])
    assert rc == 0
    assert load_json(out)["passed"] is True


def test_report_reemit(tmp_path):
    cfgfile = tmp_path / "m.cfg"
    cfgfile.write_text(
        "lambda_count = 3\nbandwidth = 4,6,6\ngrid = 16,24,24\ncap_schedule = 3,5,6\ntrials = 1\n"
    )
    report = tmp_path / "r.json"
    run(["maximal-suite", "--config", str(cfgfile), "--seed", "2", "--out", str(report)])
    out = tmp_path / "r.csv"
    assert run(["report", "--in", str(report), "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "trial" in lines[0].split(",")
    assert len(lines) == 1 + 3  # header + trials x cap levels


def test_scalar_config_for_tuple_fields(tmp_path, capsys):
    conv = tmp_path / "c.cfg"
    conv.write_text(
        "jk = 1\nlambda_count = 3\nbandwidth = 4,5,5\ngrid = 16,20,20\nlevels = 2,4\n"
        "free_cap = 5\ntrials = 1\nbeta = 3.0\n"
    )
    assert run(["converge", "--config", str(conv), "--out", str(tmp_path / "c.json")]) == 0
    maxi = tmp_path / "m.cfg"
    maxi.write_text(
        "cap_schedule = 6\nlambda_count = 3\nbandwidth = 4,6,6\ngrid = 16,24,24\ntrials = 1\n"
    )
    assert run(["maximal-suite", "--config", str(maxi), "--out", str(tmp_path / "m.json")]) == 0
    assert load_json(tmp_path / "m.json")["config"]["cap_schedule"] == [6]
    capsys.readouterr()
    maxi.write_text("cap_schedule = 6, wide\n")
    assert run(["maximal-suite", "--config", str(maxi)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'cap_schedule'") and err.count("\n") == 1


def test_malformed_spectrum_is_input_error(tmp_path, capsys):
    spec = tmp_path / "f.json"
    assert run(["gen", "--N", "2", "--B", "2", "--out", str(spec)]) == 0
    doc = load_json(spec)
    bad = tmp_path / "bad.json"
    for broken in ({k: v for k, v in doc.items() if k != "B"}, dict(doc, B="2"),
                   dict(doc, coefficients=doc["coefficients"][:-1])):
        bad.write_text(json.dumps(broken))
        capsys.readouterr()
        assert run(["partial-sum", "--spec", str(bad), "--n", "1", "1"]) == 2
        assert capsys.readouterr().err.count("\n") == 1


def test_usage_error_exit_code(tmp_path):
    # unknown config key -> config error -> exit 2
    other = tmp_path / "unknown.cfg"
    other.write_text("nope = 1\n")
    assert run(["verify", "identities", "--config", str(other)]) == 2


def test_assertion_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(
        "perturb = true\nabel_trials = 3\ntelescope_cases = 1\n"
        "decompose_cases = 1\nshell_spectra = 1\nvanishing_box = 8\n"
    )
    assert run(["verify", "identities", "--config", str(cfg), "--seed", "1"]) == 1
    capsys.readouterr()


def test_missing_spec_is_config_error(tmp_path):
    assert run(["partial-sum", "--spec", str(tmp_path / "absent.json"), "--n", "1", "1"]) == 2


def test_argparse_usage_exit():
    with pytest.raises(SystemExit) as exc:
        run(["definitely-not-a-command"])
    assert exc.value.code == 2
