import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_gen_single_mode_defaults_to_the_ones_mode(tmp_path):
    # without --mode a single mode sits at (1, ..., 1), not the suites' (1, 2, 3)
    import hashlib

    out = tmp_path / "f.json"
    assert run(["gen", "--family", "single_mode", "--N", "2", "--B", "3", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "2da20e244ccd5a83a8c50afe518e6b778d06933d312c37c67cdd47c0de50c191"
    s = spectrum_from_dict(load_json(out))
    assert s.coeffs[4, 4] == 1.0 and s.energy() == 1.0


@pytest.mark.parametrize(
    "base, key, value, other, flag",
    [
        ([], "family", "product_1d", "single_mode", ["--family", "product_1d"]),
        ([], "dimension", "2", "4", ["--N", "2"]),
        ([], "beta", "4.0", "1.0", ["--beta", "4"]),
        (["--family", "weyl_borderline", "--Jk", "1"], "eps", "2.0", "0.25", ["--eps", "2"]),
        (["--family", "single_mode"], "mode", "1,0,-2", "0,0,0", ["--mode", "1", "0", "-2"]),
        (["--family", "weyl_borderline"], "jk", "2", "3", ["--Jk", "2"]),
        ([], "normalize", "false", "true", ["--no-normalize"]),
    ],
)
def test_gen_reads_its_config(base, key, value, other, flag, tmp_path, capsys):
    # a --config key reaches the spectrum as its flag does, and the flag wins
    # over the same key
    def gen(argv, config=None):
        out, cfg = tmp_path / "f.json", tmp_path / "c.cfg"
        out.unlink(missing_ok=True)
        if config is not None:
            cfg.write_text(config + "\n")
            argv = argv + ["--config", str(cfg)]
        rc = run(["gen", "--B", "2", "--seed", "1", *base, *argv, "--out", str(out)])
        capsys.readouterr()
        return out.read_bytes() if rc == 0 else None

    flagged = gen(flag)
    assert flagged is not None
    assert gen([], f"{key} = {value}") == flagged
    assert gen([]) != flagged
    assert gen(flag, f"{key} = {other}") == flagged


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


def test_verify_abel_holds_rounding_to_its_scale(capsys):
    # at n = 100 the iterated prefix sums grow to about 1e7, so the sides
    # differ by about 2e-8: rounding of a holding identity, within 1e-10 of
    # the right side's term magnitudes, not a failure
    assert run(["verify", "abel", "--n", "100", "--trials", "1", "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 1e-10 < doc["max_abs_difference"] <= 1e-10 * doc["scale"]


def test_verify_abel_echoes_its_inputs(capsys):
    # two runs that differ only in --seed, --nu or --n differ in their documents
    docs = {}
    for argv in ([], ["--seed", "8"], ["--nu", "2"], ["--n", "3"]):
        assert run(["verify", "abel", "--trials", "2", *argv]) == 0
        docs[tuple(argv)] = json.loads(capsys.readouterr().out)
    assert {k: docs[()][k] for k in ("seed", "nu", "n", "trials")} == {"seed": 7, "nu": 3, "n": 4, "trials": 2}
    assert docs[("--seed", "8")]["seed"] == 8
    assert docs[("--nu", "2")]["nu"] == 2
    assert docs[("--n", "3")]["n"] == 3


@pytest.mark.parametrize("cmd", [
    ["maximal", "--Jk", "1", "--free-cap", "4"],
    ["decompose", "--free-axes", "2", "3", "--n", "2", "2", "1"],
])
def test_single_commands_echo_their_grid(cmd, tmp_path, capsys):
    # two runs that differ only in --grid differ in their documents; without
    # --grid the grid is four points per unit of the largest bandwidth
    spec = tmp_path / "f.json"
    assert run(["gen", "--N", "3", "--B", "2", "--seed", "1", "--out", str(spec)]) == 0
    capsys.readouterr()
    for grid, expected in ((["--grid", "12"], [12, 12, 12]), (["--grid", "16"], [16, 16, 16]), ([], [8, 8, 8])):
        assert run([*cmd, "--spec", str(spec), *grid]) == 0
        assert json.loads(capsys.readouterr().out)["grid"] == expected



@pytest.mark.parametrize("nu", [40, 14])
def test_verify_abel_over_budget_exits_2_before_any_work(nu, capsys):
    # order 40 at n = 2 sizes a hypersequence past the array budget; order
    # 14 fits it, but its 3^14 regime passes over 3^14 cells would run for
    # minutes
    import time

    t0 = time.perf_counter()
    assert run(["verify", "abel", "--nu", str(nu), "--n", "2", "--trials", "1"]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1

def test_verify_identities(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(
        "abel_trials = 5\ntelescope_cases = 3\ndecompose_cases = 3\nshell_spectra = 1\nvanishing_box = 8\n"
    )
    assert run(["verify", "identities", "--config", str(cfgfile), "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert "trials" not in doc["config"]  # the identity suite has no trials
    assert doc["config"]["abel_trials"] == 5 and doc["config"]["seed"] == 1


@pytest.mark.parametrize(
    "cmd, line",
    [
        ("maximal-suite", "free_cap = 3"),
        ("maximal-suite", "levels = 1,2"),
        ("maximal-suite", "tail_slack = 5"),
        ("converge", "cap_schedule = 2,4"),
        ("converge", "weight = unit"),
        ("converge", "stabilization_threshold = 0.5"),
        ("verify identities", "trials = 5"),
        ("verify identities", "cap_schedule = 2,4"),
        ("verify identities", "bandwidth = 3"),
        ("gen", "q = 2.5"),
    ],
)
def test_config_key_a_command_does_not_read_exits_2(cmd, line, tmp_path, capsys):
    # the key would change nothing the command computes, so a report echoing
    # it would claim an input that was never applied
    import time

    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(_FUZZ_BASE[cmd] + line + "\n")
    out = tmp_path / "r.json"
    t0 = time.perf_counter()
    assert run([*cmd.split(), "--config", str(cfgfile), "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    key = line.split(" = ")[0]
    assert err.startswith("error: ") and f"config key '{key}'" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["converge", "maximal-suite", "verify identities"])
def test_suite_echo_fed_back_as_config_gives_the_same_report(cmd, tmp_path, capsys):
    # past suite, the echo holds every field the run read, each a key the
    # command takes, so it rebuilds the run byte for byte
    cfgfile, first, again = tmp_path / "c.cfg", tmp_path / "a.json", tmp_path / "b.json"
    cfgfile.write_text(_FUZZ_BASE[cmd])
    assert run([*cmd.split(), "--config", str(cfgfile), "--out", str(first)]) == 0
    echo = load_json(first)["config"]

    def text(v):
        return ",".join(map(str, v)) if isinstance(v, list) else str(v)

    cfgfile.write_text("".join(f"{k} = {text(v)}\n" for k, v in echo.items() if k != "suite"))
    assert run([*cmd.split(), "--config", str(cfgfile), "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    capsys.readouterr()


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


def test_converge_level_past_a_lacunary_bandwidth(tmp_path, capsys):
    # the lacunary axis has bandwidth 3, so its terms 4, 8 and 16 all clamp
    # to 3 and the plan keeps only 4; level 8 is still reached, by 8 and 16
    from lacsum.spectral import TorusGrid, partial_sum
    from lacsum.suites import gen_test_function

    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(
        "trials = 1\nbandwidth = 3,8,8\ngrid = 12,32,32\nlevels = 4,8\n"
        "lambda_count = 5\nfree_cap = 8\nbeta = 3.0\n"
    )
    out = tmp_path / "conv.json"
    assert run(["converge", "--config", str(cfgfile), "--seed", "1", "--out", str(out)]) == 0
    rows = load_json(out)["results"]["cases"]
    assert [r["level"] for r in rows] == [4, 8]
    # oracle: the partial sums at every index whose components all reach the
    # level (lacunary terms 1, 2, 4, 8, 16; free values up to the cap 8)
    s = gen_test_function("random_decay", (3, 8, 8), seed=[1, 0], beta=3.0)
    grid = TorusGrid((12, 32, 32))
    f = partial_sum(s, (3, 8, 8), grid).values
    for row in rows:
        level = row["level"]
        worst = max(
            float(np.max(np.abs(partial_sum(s, (t, a, b), grid).values - f)))
            for t in (1, 2, 4, 8, 16) if t >= level
            for a in range(level, 9)
            for b in range(level, 9)
        )
        assert abs(row["sup_error"] - worst) <= 1e-12, (level, row["sup_error"], worst)


def test_config_key_set_twice_exits_2(tmp_path, capsys):
    # the report's echo could show only one of the two values
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("trials = 2\ntrials = 3\n")
    out = tmp_path / "r.json"
    assert run(["maximal-suite", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "c.cfg:2: key 'trials' is already set on line 1" in err
    assert not out.exists()


def test_alpha_points_over_budget_exits_2_before_any_trial(tmp_path, capsys):
    # 10^7 level-set passes over the default grid's 147,968 points would take
    # over an hour per cap level
    import time

    cfgfile = tmp_path / "m.cfg"
    cfgfile.write_text("alpha_points = 10000000\n")
    t0 = time.perf_counter()
    assert run(["maximal-suite", "--trials", "1", "--config", str(cfgfile)]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "alpha_points" in err and err.count("\n") == 1


def test_alpha_points_budget_ignores_the_grid_size(tmp_path, capsys):
    # the bound is on the alpha grid's own cost, whatever the grid: 5,000
    # points on a 60^3 grid run, 10^5 + 1 on an 8^3 grid do not
    cfgfile = tmp_path / "m.cfg"
    cfgfile.write_text("alpha_points = 5000\n")
    assert run(["maximal-suite", "--trials", "0", "--grid", "60", "--config", str(cfgfile)]) == 0
    capsys.readouterr()
    cfgfile.write_text("alpha_points = 100001\n")
    assert run(["maximal-suite", "--trials", "0", "--grid", "8", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "alpha_points" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "nu, message",
    [
        (None, "weighted energy is zero"),
        # one mode at (3, 3, 3), and the space holds only the index (1, 0, 0)
        ((3, 3, 3), "maximal function vanishes"),
    ],
)
def test_maximal_degenerate_input_exits_2(tmp_path, capsys, nu, message):
    from lacsum.serialize import save_json, spectrum_to_dict
    from spectra import single_mode_spectrum, zero_spectrum

    s = zero_spectrum((3, 3, 3)) if nu is None else single_mode_spectrum((3, 3, 3), nu)
    spec = tmp_path / "f.json"
    save_json(spectrum_to_dict(s), spec)
    out = tmp_path / "max.json"
    rc = run(["maximal", "--spec", str(spec), "--Jk", "1", "--lambda-count", "1", "--free-cap", "0",
              "--grid", "8", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv, config, count",
    [
        (["maximal-suite"], "lambda_count = 3\nbandwidth = 4,6,6\ngrid = 16,24,24\n"
         "cap_schedule = 3,5,6\ntrials = 1\n", 3),
        (["maximal-suite"], "trials = 0\n", 0),
        (["verify", "identities"], "abel_trials = 3\ntelescope_cases = 1\ndecompose_cases = 1\n"
         "shell_spectra = 1\nvanishing_box = 4\n", 7),
    ],
)
def test_report_csv_matches_suite_csv(argv, config, count, tmp_path, capsys):
    # the re-emitted CSV orders columns and checks by name (the JSON is
    # written with sorted keys) but holds the suite's own rows
    import csv

    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(config)
    report = tmp_path / "r.json"
    assert run(argv + ["--config", str(cfgfile), "--format", "csv", "--out", str(report)]) == 0
    out = tmp_path / "again.csv"
    assert run(["report", "--in", str(report), "--format", "csv", "--out", str(out)]) == 0

    def rows(path):
        with open(path, newline="") as fh:
            return sorted((dict(r) for r in csv.DictReader(fh)), key=lambda r: sorted(r.items()))

    assert rows(out) == rows(report.with_suffix(".csv"))
    assert len(rows(out)) == count
    capsys.readouterr()


@pytest.mark.parametrize(
    "doc",
    [[1, 2], "text", {"schema": "lacsum.report/1", "results": [1]},
     {"schema": "lacsum.report/1", "results": {"cases": [1, 2]}},
     {"schema": "lacsum.report/1", "results": {"checks": {"abel": 3}}}],
)
def test_report_csv_rejects_non_report_json(doc, tmp_path, capsys):
    # a non-object document, results or case row is an input error, not a crash
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert run(["report", "--in", str(src), "--format", "csv", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("fmt", [[], ["--format", "csv"]])
@pytest.mark.parametrize("which", ["spectrum", "maximal"])
def test_report_takes_only_reports(which, fmt, tmp_path, capsys):
    # a spectrum or a lacsum.maximal/1 document is not re-emitted: one error line, exit 2
    spec, doc = tmp_path / "f.json", tmp_path / "m.json"
    assert run(["gen", "--N", "3", "--B", "2", "--seed", "1", "--out", str(spec)]) == 0
    assert run(["maximal", "--spec", str(spec), "--Jk", "1", "--grid", "8", "--out", str(doc)]) == 0
    capsys.readouterr()
    out = tmp_path / "out.csv"
    src = spec if which == "spectrum" else doc
    assert run(["report", "--in", str(src), *fmt, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not a lacsum.report/1 document") and err.count("\n") == 1
    assert not out.exists()


def test_report_reemits_a_report_byte_for_byte(tmp_path, capsys):
    report, again = tmp_path / "r.json", tmp_path / "r2.json"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("abel_trials = 3\ntelescope_cases = 1\ndecompose_cases = 1\n"
                   "shell_spectra = 1\nvanishing_box = 4\n")
    assert run(["verify", "identities", "--config", str(cfg), "--out", str(report)]) == 0
    assert run(["report", "--in", str(report), "--out", str(again)]) == 0
    assert again.read_bytes() == report.read_bytes()
    capsys.readouterr()


def test_gen_and_partial_sum_bytes_are_pinned(tmp_path, capsys):
    # the bulk array writer keeps the documents' bytes: digests of the
    # stdlib's indented text of the same documents
    import hashlib

    spec, ps = tmp_path / "f.json", tmp_path / "p.json"
    assert run(["gen", "--N", "3", "--B", "4", "--seed", "1", "--out", str(spec)]) == 0
    assert run(["partial-sum", "--spec", str(spec), "--n", "2", "2", "2", "--grid", "8",
                "--out", str(ps)]) == 0
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (spec, ps)]
    assert digests == ["8a8818c0a8b2cec0cfa8b93753a2b5fb65e0abb19d5b687f8f5a4e4adf6c69cf",
                       "5203e3b5ec9d216cd68170bbebbd7cb0f274c8441962b6fcb2df0bceff5dc853"]
    for p in (spec, ps):
        assert p.read_text() == json.dumps(json.loads(p.read_text()), sort_keys=True, indent=2) + "\n"
    capsys.readouterr()


def test_partial_sum_fix_outside_grid_is_input_error(tmp_path, capsys):
    spec = tmp_path / "f.json"
    assert run(["gen", "--N", "3", "--B", "2", "--out", str(spec)]) == 0
    out = tmp_path / "slice.csv"
    argv = ["partial-sum", "--spec", str(spec), "--n", "1", "1", "1", "--grid", "8",
            "--format", "csv", "--out", str(out), "--fix", "1"]
    for pos in ("99", "8", "-1"):
        capsys.readouterr()
        assert run(argv + [pos]) == 2, pos
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
    assert run(argv + ["7"]) == 0  # the last grid point
    assert len(out.read_text().splitlines()) == 1 + 64
    capsys.readouterr()


@pytest.mark.parametrize(
    "n, fix, header",
    [
        (3, [], "x2,x3,re,im"),  # axis 1 pinned at 0
        (4, ["1", "0"], "x3,x4,re,im"),  # axis 2 pinned at 0 beside the given axis 1
        (4, ["3", "2"], "x2,x4,re,im"),  # axis 1 pinned at 0 beside the given axis 3
    ],
)
def test_partial_sum_csv_pins_lowest_axes(n, fix, header, tmp_path, capsys):
    spec = tmp_path / "f.json"
    assert run(["gen", "--N", str(n), "--B", "1", "--out", str(spec)]) == 0
    out = tmp_path / "slice.csv"
    argv = ["partial-sum", "--spec", str(spec), "--n", *["1"] * n, "--grid", "4",
            "--format", "csv", "--out", str(out)]
    assert run(argv + (["--fix", *fix] if fix else [])) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + 16
    capsys.readouterr()


def test_maximal_all_lacunary_space(tmp_path, capsys):
    # k = N: no free axes, so the index space is the lacunary terms alone and
    # the product weight is the empty product 1
    from lacsum import (
        JkIndexSpace,
        SampleJk,
        TorusGrid,
        enumerate_jk_indices,
        gather_max,
        grid_l2,
        make_lacunary,
        sweep_space,
    )
    from lacsum.weyl import product_weight

    spec = tmp_path / "f.json"
    assert run(["gen", "--N", "3", "--B", "3", "--seed", "2", "--out", str(spec)]) == 0
    out = tmp_path / "max.json"
    rc = run(["maximal", "--spec", str(spec), "--Jk", "1", "2", "3", "--lambda-count", "3",
              "--grid", "12", "--out", str(out)])
    assert rc == 0
    doc = load_json(out)
    assert doc["space"]["free_axes"] == [] and doc["space"]["free_caps"] == []
    assert doc["space"]["index_count"] == 27
    s = spectrum_from_dict(load_json(spec))
    sample = SampleJk(3, (1, 2, 3))
    assert product_weight(sample).evaluate((5, 7, 9)) == 1.0
    assert doc["weak_type"]["sigma"] == s.energy()
    space = JkIndexSpace(sample, (make_lacunary(2.0, 3),) * 3, ())
    grid = TorusGrid((12,) * 3)
    blocked = sweep_space(s, grid, space, [product_weight(sample)])[0, 0]
    assert doc["m_l2"] == grid_l2(blocked)
    values = gather_max(s, grid, list(enumerate_jk_indices(space)), product_weight(sample))
    assert np.max(np.abs(blocked - values)) < 1e-10
    capsys.readouterr()


def test_maximal_three_free_axes(tmp_path, capsys):
    # N = 4, k = 1: the paper's N - k = 3 free axes. The shell tensor the
    # gather oracle builds would take 655 MB here, so the oracle is the loop
    # over the clamped indices: every term and cap past B = 4 clamps onto an
    # index the space already holds, whose weight is the group's smallest.
    import itertools

    from lacsum import SampleJk, TorusGrid, partial_sum
    from lacsum.weyl import product_weight

    spec = tmp_path / "f.json"
    assert run(["gen", "--N", "4", "--B", "4", "--seed", "5", "--out", str(spec)]) == 0
    out = tmp_path / "max.json"
    assert run(["maximal", "--spec", str(spec), "--Jk", "1", "--grid", "16", "--out", str(out)]) == 0
    s = spectrum_from_dict(load_json(spec))
    grid = TorusGrid((16,) * 4)
    w = product_weight(SampleJk(4, (1,)))
    best = np.zeros(grid.resolution)
    for idx in itertools.product((1, 2, 4), *[range(5)] * 3):
        vals = np.abs(partial_sum(s, idx, grid).values) / np.sqrt(w.evaluate(np.asarray(idx)))
        np.maximum(best, vals, out=best)
    assert abs(load_json(out)["m_l2"] - np.sqrt(np.mean(best**2))) < 1e-10
    capsys.readouterr()


@pytest.mark.parametrize("jk", [["2"], ["1", "2", "3", "4"]])
def test_maximal_four_dimensional_spaces(jk, tmp_path, capsys):
    # three free axes, and none (k = N)
    spec = tmp_path / "f.json"
    assert run(["gen", "--N", "4", "--B", "5", "--seed", "3", "--out", str(spec)]) == 0
    out = tmp_path / "max.json"
    assert run(["maximal", "--spec", str(spec), "--Jk", *jk, "--grid", "12", "--out", str(out)]) == 0
    assert load_json(out)["m_l2"] > 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "cmd, config",
    [
        ("converge", "levels = 1,2\nfree_cap = 3\n"),
        ("maximal-suite", "cap_schedule = 1,2,3\nalpha_points = 5\n"),
    ],
)
def test_suites_take_three_free_axes(cmd, config, tmp_path, capsys):
    # N = 4, jk = 1 runs to a verdict: 0 or 1, never an input error
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dimension = 4\njk = 1\nlambda_count = 3\nbandwidth = 3\ngrid = 12\n"
                   "trials = 1\n" + config)
    out = tmp_path / "r.json"
    assert run([cmd, "--config", str(cfg), "--seed", "1", "--out", str(out)]) in (0, 1)
    assert load_json(out)["config"]["dimension"] == 4
    capsys.readouterr()


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
    # a scalar cap schedule is one level: too few to stabilize, so a config error
    capsys.readouterr()
    assert run(["maximal-suite", "--config", str(maxi), "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cap schedule") and err.count("\n") == 1
    assert not (tmp_path / "m.json").exists()
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


# a zero-dimensional spectrum document, one whose coefficient is an integer
# too large for a float, and JSON nested past the parser's recursion limit
_SPEC_0D = '{"schema":"lacsum.spectrum/1","N":0,"B":[],"coefficients":[[1,0]]}'
_SPEC_HUGE = '{"schema":"lacsum.spectrum/1","N":1,"B":[0],"coefficients":[[1' + "0" * 400 + ",0]]}"
_DEEP = "[" * 200000 + "]" * 200000


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "abel", "--n", "1"],
        ["verify", "abel", "--nu", "0"],
        ["verify", "abel", "--trials", "-1"],
        ["gen", "--B", "-1"],
        ["gen", "--N", "0"],
        ["maximal-suite", "--trials", "-1"],
        ["converge", "--trials", "-1"],
        ["maximal", "--spec", "{spec}", "--Jk", "1", "--q", "nan"],
        ["maximal-suite", "--trials", "1", "--q", "nan"],
        ["maximal-suite", "--trials", "1", "--config", "q = nan"],
        ["maximal-suite", "--trials", "1", "--config", "q = inf"],
        ["maximal-suite", "--trials", "1", "--config", "stabilization_threshold = nan"],
        ["converge", "--trials", "1", "--config", "tail_slack = nan"],
        ["verify", "identities", "--config", "identity_tolerance = nan"],
        ["maximal-suite", "--trials", "1", "--cap-schedule", "2", "4", "--config", "alpha_points = 0"],
        ["maximal-suite", "--trials", "1", "--cap-schedule", "8"],
        ["partial-sum", "--spec", "{spec}", "--n", "1", "1", "1", "--grid", "0"],
        ["maximal", "--spec", "{spec}", "--Jk", "1", "--grid", "0"],
        ["decompose", "--spec", "{spec}", "--free-axes", "2", "3", "--n", "1", "1", "1", "--grid", "0"],
        ["converge", "--trials", "1", "--levels", "-3", "2"],
        ["converge", "--trials", "1", "--config", "levels = -1"],
        ["gen", "--seed", "-1"],
        ["gen", "--config", "seed = -1"],
        ["verify", "abel", "--seed", "-1"],
        ["verify", "identities", "--seed", "-1"],
        ["converge", "--trials", "1", "--seed", "-1"],
        ["maximal-suite", "--trials", "1", "--config", "seed = -1"],
        ["verify", "identities", "--config", "abel_max_n = 1"],
        ["verify", "identities", "--config", "abel_max_n = 100000"],
        ["verify", "identities", "--config", "block_bandwidth = -2"],
        ["verify", "identities", "--config", "vanishing_box = -1"],
        ["verify", "identities", "--config", "shell_spectra = -1"],
        ["partial-sum", "--spec", _SPEC_0D, "--n", "1"],
        ["decompose", "--spec", _SPEC_0D, "--free-axes", "2", "3", "--n", "1", "1", "1"],
        ["partial-sum", "--spec", _DEEP, "--n", "1"],
        ["report", "--in", _DEEP],
        ["report", "--in", "[" * 700 + "]" * 700],
        ["partial-sum", "--spec", _SPEC_HUGE, "--n", "1"],
        ["maximal", "--spec", "{spec}", "--Jk", "1", "--lambda-count", "1100"],
        ["maximal", "--spec", "{spec}", "--Jk", "1", "--q", "1e308", "--lambda-count", "3"],
        ["maximal-suite", "--trials", "1", "--q", "1e308"],
        ["converge", "--trials", "1", "--config", "q = 1e308"],
        ["maximal", "--spec", "{spec}", "--Jk", "1", "--q", "1.001", "--lambda-count", "4097"],
        # coefficient boxes past the spectrum byte budget, and more axes than
        # numpy arrays take
        ["gen", "--N", "40", "--B", "1", "--family", "single_mode"],
        ["gen", "--N", "40", "--B", "1", "--family", "random_decay"],
        ["gen", "--N", "40", "--B", "1", "--family", "product_1d"],
        ["gen", "--N", "40", "--B", "1", "--family", "weyl_borderline", "--Jk", "1"],
        ["gen", "--N", "70", "--B", "0"],
        ["maximal-suite", "--config", "dimension = 40\ntrials = 1"],
        ["converge", "--config",
         "dimension = 40\nbandwidth = 1\ngrid = 4\nlevels = 1\nfree_cap = 1\ntrials = 1"],
        # a shared flag the command does not read, one per command, and a
        # flag value argparse cannot parse
        ["gen", "--grid", "8"],
        ["partial-sum", "--spec", "{spec}", "--n", "1", "1", "1", "--seed", "1"],
        ["maximal", "--spec", "{spec}", "--Jk", "1", "--format", "csv"],
        ["decompose", "--spec", "{spec}", "--free-axes", "2", "3", "--n", "1", "1", "1",
         "--config", "seed = 1"],
        ["verify", "abel", "--trials", "1", "--grid", "8"],
        ["verify", "identities", "--nu", "3"],
        ["report", "--in", "{}", "--seed", "1"],
        ["maximal", "--spec", "{spec}", "--Jk", "1", "--grid", "abc"],
    ],
)
def test_out_of_range_arguments_are_input_errors(argv, tmp_path, capsys):
    # "{spec}" stands for a generated spectrum file, and the word after
    # "--config" for the text of a config file, as does any other word after
    # "--spec" or "--in" for the text of a document
    spec, cfg, doc = tmp_path / "f.json", tmp_path / "c.cfg", tmp_path / "doc.json"
    if "{spec}" in argv:
        assert run(["gen", "--N", "3", "--B", "2", "--out", str(spec)]) == 0
        capsys.readouterr()
    for flag, path, end in (("--config", cfg, "\n"), ("--spec", doc, ""), ("--in", doc, "")):
        if flag in argv and argv[argv.index(flag) + 1] != "{spec}":
            at = argv.index(flag) + 1
            path.write_text(argv[at] + end)
            argv = argv[:at] + [str(path)] + argv[at + 1 :]
    argv = [str(spec) if a == "{spec}" else a for a in argv]
    assert run(argv + ["--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError(), "out of memory"),
        (MemoryError("Unable to allocate 56.8 PiB for an array"), "Unable to allocate 56.8 PiB for an array"),
    ],
    ids=["bare", "numpy"],
)
def test_memory_error_is_an_input_error(exc, message, tmp_path, monkeypatch, capsys):
    # the handler raises as numpy does on an impossible size; nothing large
    # is allocated
    import lacsum.cli

    def fail(args):
        raise exc

    monkeypatch.setattr(lacsum.cli, "_cmd_gen", fail)
    assert run(["gen", "--N", "3", "--B", "2", "--out", str(tmp_path / "f.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_sweep_maxima_budget_guard(tmp_path, monkeypatch, capsys):
    # the running maxima take 2 weights x levels x 8*12*12 grid points x 8
    # bytes: two cap levels fit a two-level budget, a third is refused before
    # the sweep allocates anything
    import lacsum.maximal

    monkeypatch.setattr(lacsum.maximal, "_ARRAY_BYTES", 2 * 2 * 8 * 12 * 12 * 8)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("lambda_count = 3\nbandwidth = 2,3,3\ngrid = 8,12,12\ntrials = 1\nalpha_points = 3\n")
    argv = ["maximal-suite", "--config", str(cfg), "--out", str(tmp_path / "r.json"), "--cap-schedule"]
    assert run(argv + ["1", "2"]) in (0, 1)  # swept, whatever the verdict
    (tmp_path / "r.json").unlink()
    capsys.readouterr()
    assert run(argv + ["1", "2", "3"]) == 2
    assert not (tmp_path / "r.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: sweep maxima would take") and err.count("\n") == 1


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


def test_argparse_usage_exit(capsys):
    # a usage error is an input error in one line; -h still exits 0
    assert run(["definitely-not-a-command"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lacsum: argument command: invalid choice") and err.count("\n") == 1
    with pytest.raises(SystemExit) as exc:
        run(["verify", "abel", "-h"])
    assert exc.value.code == 0
    assert "--nu" in capsys.readouterr().out


# the shared flags each command takes besides --out: the ones it reads
_SHARED_FLAGS = {
    "gen": {"--seed", "--config"},
    "partial-sum": {"--grid", "--format"},
    "maximal": {"--grid"},
    "decompose": {"--grid"},
    "converge": {"--seed", "--grid", "--format", "--config"},
    "maximal-suite": {"--seed", "--grid", "--format", "--config"},
    "verify abel": {"--seed"},
    "verify identities": {"--seed", "--format", "--config"},
    "report": {"--format"},
}


def _subparser(cmd):
    """The parser of ``cmd``, descending through ``verify``'s targets."""
    import argparse

    from lacsum.cli import build_parser

    parser = build_parser()
    for word in cmd.split():
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[word]
    return parser


@pytest.mark.parametrize("cmd", sorted(_SHARED_FLAGS))
def test_commands_take_only_the_shared_flags_they_read(cmd):
    options = {o for a in _subparser(cmd)._actions for o in a.option_strings}
    assert options & {"--seed", "--grid", "--format", "--config"} == _SHARED_FLAGS[cmd]
    assert "--out" in options


@pytest.mark.parametrize(
    "n, jk, free_cap, grid_size, sweeps_expected",
    [
        # one free axis, and three: one sweep carries both weights
        (3, (1, 2), 6, 16, [2]),
        (4, (1,), 2, 8, [2]),
    ],
)
def test_maximal_one_pass_matches_two_calls(
    tmp_path, monkeypatch, n, jk, free_cap, grid_size, sweeps_expected
):
    import lacsum.maximal as maximal
    from lacsum import (
        JkIndexSpace,
        SampleJk,
        TorusGrid,
        grid_l2,
        make_lacunary,
        sweep_space,
        weak_type_table,
    )
    from lacsum.serialize import save_csv, save_json
    from lacsum.weyl import weight_from_kind

    spec = tmp_path / "f.json"
    bandwidth = "4" if n == 3 else "2"
    run(["gen", "--family", "random_decay", "--N", str(n), "--B", bandwidth, "--seed", "6",
         "--out", str(spec)])
    sweeps = []
    sweep_space = maximal.sweep_space
    monkeypatch.setattr(
        maximal, "sweep_space", lambda *a, **k: sweeps.append(len(a[3])) or sweep_space(*a, **k)
    )
    out = tmp_path / "max.json"
    rc = run(
        ["maximal", "--spec", str(spec), "--Jk", *map(str, jk), "--q", "2", "--lambda-count", "3",
         "--free-cap", str(free_cap), "--weight", "product", "--grid", str(grid_size),
         "--out", str(out)]
    )
    assert rc == 0
    assert sweeps == sweeps_expected  # one pass, carrying both weights
    monkeypatch.undo()

    # the document a one-weight sweep and the weak-type table give separately
    s = spectrum_from_dict(load_json(spec))
    sample = SampleJk(n, jk)
    family = make_lacunary(2.0, 3)
    n_free = n - len(jk)
    space = JkIndexSpace(sample, (family,) * len(jk), (free_cap,) * n_free)
    grid = TorusGrid((grid_size,) * n)
    weight = weight_from_kind("product", sample)
    m_l2 = grid_l2(sweep_space(s, grid, space, [weight])[0, 0])
    input_l2 = float(np.sqrt(s.energy()))
    table = weak_type_table(s, space, weight, grid)
    doc = {
        "schema": "lacsum.maximal/1",
        "grid": [grid_size] * n,
        "space": {
            "dimension": n,
            "lacunary_axes": list(jk),
            "free_axes": [a for a in range(1, n + 1) if a not in jk],
            "ratios": [2.0] * len(jk),
            "terms": [[1, 2, 4]] * len(jk),
            "free_caps": [free_cap] * n_free,
            "index_count": 3 ** len(jk) * (free_cap + 1) ** n_free,
        },
        "weight": weight.description,
        "m_l2": m_l2,
        "input_l2": input_l2,
        "ratio": m_l2 / input_l2,
        "weak_type": {
            "alphas": list(table.alphas),
            "ratios": list(table.ratios),
            "sigma": table.sigma,
            "max_ratio": table.max_ratio,
        },
    }
    ref = tmp_path / "ref.json"
    save_json(doc, ref)
    rows = [{"alpha": float(a), "ratio": float(r)} for a, r in zip(table.alphas, table.ratios)]
    save_csv(["alpha", "ratio"], rows, ref.with_suffix(".csv"))
    assert out.read_bytes() == ref.read_bytes()
    assert out.with_suffix(".csv").read_bytes() == ref.with_suffix(".csv").read_bytes()



# per config field a flag can set: (its --config value, the flag's words, the echo)
_FLAG_FIELDS = {
    "seed": ("4", ["5"], 5),
    "grid": ("20", ["16"], 16),
    "trials": ("1", ["0"], 0),
    "jk": ("2", ["1"], [1]),
    "q": ("2.5", ["3"], 3.0),
    "levels": ("1,2", ["1", "3"], [1, 3]),
    "free_cap": ("3", ["4"], 4),
    "cap_schedule": ("1,2,3", ["2", "3"], [2, 3]),
    "weight": ("product", ["unit"], "unit"),
}


@pytest.mark.parametrize("cmd", ["converge", "maximal-suite", "verify identities"])
def test_config_field_flags_reach_the_echo(cmd, tmp_path):
    # every flag named after an ExperimentConfig field lands in the report's
    # config echo and wins over the same key in --config
    import dataclasses

    from lacsum.suites import ExperimentConfig

    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    flags = {a.dest: a.option_strings[0] for a in _subparser(cmd)._actions if a.dest in fields}
    assert set(flags) <= set(_FLAG_FIELDS), sorted(set(flags) - set(_FLAG_FIELDS))
    cfg = tmp_path / "c.cfg"
    # each key once: the flagged fields' config values replace the base's
    config = dict(line.split(" = ") for line in _FUZZ_BASE[cmd].splitlines())
    config.update({k: _FLAG_FIELDS[k][0] for k in flags})
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    argv = cmd.split() + [w for k, flag in flags.items() for w in [flag, *_FLAG_FIELDS[k][1]]]
    out = tmp_path / "r.json"
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 0
    echo = load_json(out)["config"]
    assert {k: echo[k] for k in flags} == {k: _FLAG_FIELDS[k][2] for k in flags}


# ---------------------------------------------------------------------------
# the exit-code contract under random argv values and config lines

_FUZZ_BASE = {
    "converge": "lambda_count = 3\nbandwidth = 2,3,3\ngrid = 8,12,12\nlevels = 1,2\n"
    "free_cap = 3\ntrials = 1\n",
    "maximal-suite": "lambda_count = 3\nbandwidth = 2,3,3\ngrid = 8,12,12\ncap_schedule = 1,2,3\n"
    "trials = 1\nalpha_points = 3\n",
    "verify identities": "abel_trials = 3\ntelescope_cases = 1\ndecompose_cases = 0\n"
    "shell_spectra = 0\nvanishing_box = 4\nblock_bandwidth = 4\n",
    "gen": "",
}
# keys a fuzzed config line may set; each stays cheap at the values drawn
_SUITE_KEYS = ["seed", "dimension", "jk", "q", "lambda_count", "bandwidth", "grid", "family",
               "beta", "eps", "mode", "normalize", "trials", "cap_schedule", "free_cap",
               "levels", "weight", "stabilization_threshold", "tail_slack", "alpha_points"]
_FUZZ_KEYS = {
    "converge": _SUITE_KEYS,
    "maximal-suite": _SUITE_KEYS,
    "verify identities": ["seed", "abel_trials", "abel_max_n", "telescope_cases",
                          "block_ratios", "block_bandwidth", "vanishing_box",
                          "identity_tolerance", "perturb"],
    "gen": ["seed", "bandwidth", "dimension", "q", "family", "beta", "eps", "mode", "jk",
            "normalize"],
}
_VALUES = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(["", ",", "nan", "inf", "1e400", "x", "true", "0.5", "1.5,3", "1,2", "3,2",
                     "2,,4", "-1,2", "1,2,3"]),
)


def _ints(lo, hi, min_size=1, max_size=3):
    return st.lists(st.integers(lo, hi).map(str), min_size=min_size, max_size=max_size)


def _num(lo, hi):
    return st.integers(lo, hi).map(lambda v: [str(v)])


def _words(*words):
    return st.sampled_from(words).map(lambda w: [w])


_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
                    st.sampled_from([10**400, 1e308, 0.5]))
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _spectrum_doc(draw):
    """A spectrum document near the schema: wrong sizes, counts, payloads,
    schema names and missing or junk fields included."""
    bw = draw(st.lists(st.integers(-1, 2), max_size=3))
    count = int(np.prod([2 * abs(b) + 1 for b in bw])) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    value = st.one_of(st.floats(-2, 2), _LEAVES)
    doc = {
        "schema": draw(st.sampled_from(["lacsum.spectrum/1", "lacsum.gridfunction/1", "x"])),
        "N": len(bw),
        "B": bw,
        "coefficients": draw(st.lists(st.lists(value, min_size=2, max_size=2),
                                      min_size=count, max_size=count)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=1)):
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(_JSON)
    return doc


_REPORT_DOC = st.fixed_dictionaries({
    "schema": st.sampled_from(["lacsum.report/1", "lacsum.report/1", "lacsum.maximal/1"]),
    "passed": st.booleans(),
    "results": st.one_of(
        _JSON,
        st.dictionaries(st.sampled_from(["cases", "checks"]), st.one_of(
            st.lists(st.dictionaries(st.sampled_from(["level", "check", "x"]), _LEAVES, max_size=3),
                     max_size=3),
            st.dictionaries(st.sampled_from(["abel", "x"]), st.one_of(_LEAVES, st.dictionaries(
                st.sampled_from(["cases", "max_deviation"]), _LEAVES, max_size=2)), max_size=2),
            _LEAVES,
        ), max_size=2),
    ),
})
# the text of a --spec or --in file: a document near a schema, any JSON value,
# nesting past what the parser or the writer can recurse into, or not JSON at all
_DOC_TEXT = st.one_of(
    st.one_of(_spectrum_doc(), _REPORT_DOC, _JSON).map(json.dumps),
    st.integers(1, 3000).map(lambda depth: "[" * depth + "]" * depth),
    st.text(max_size=8),
)


@st.composite
def _argv(draw, cmd):
    """Argv for ``cmd``: its required flags, up to three optional flags and up
    to one config line past a small base config, all at small values. The
    word ``{doc}`` stands for a file holding the drawn document text."""
    config = None
    if "--config" in _SHARED_FLAGS[cmd]:
        keys = draw(st.lists(st.sampled_from(_FUZZ_KEYS[cmd]), max_size=1))
        config = _FUZZ_BASE[cmd] + "".join(f"{k} = {draw(_VALUES)}\n" for k in keys)
    shared = {"--seed": _num(-3, 6), "--grid": _num(-1, 12), "--format": _words("json", "csv")}
    required = []
    optional = {flag: values for flag, values in shared.items() if flag in _SHARED_FLAGS[cmd]}
    if cmd == "gen":
        optional.update({
            "--N": _num(-1, 4), "--B": _num(-1, 4),
            "--family": _words("random_decay", "single_mode", "product_1d", "weyl_borderline", "x"),
            "--beta": _words("nan", "-1", "0.4", "2"), "--eps": _words("nan", "-1", "0", "0.5"),
            "--mode": _ints(-3, 3, max_size=4), "--Jk": _ints(-1, 4),
        })
    elif cmd == "verify abel":
        required.append(("--trials", _num(-1, 3)))  # the default, 100 trials, is slow
        optional.update({"--nu": _num(-1, 3), "--n": _num(-1, 4)})
    elif cmd in ("converge", "maximal-suite"):
        optional.update({"--trials": _num(-1, 2), "--Jk": _ints(-1, 4)})
        if cmd == "converge":
            levels = st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True)
            optional["--levels"] = levels.map(lambda v: [str(x) for x in sorted(v)])
    elif cmd == "report":
        required.append(("--in", st.just(["{doc}"])))
    elif cmd != "verify identities":  # the commands that read a spectrum file
        spec = {"partial-sum": _words("{spec}", "{doc}"), "maximal": _words("{spec}", "{spec4}")}
        spec = spec.get(cmd, st.just(["{spec}"]))
        required.append(("--spec", spec))
        if cmd == "maximal":
            required.append(("--Jk", _ints(-1, 4)))
            optional.update({
                "--q": _words("nan", "0.5", "1", "2", "inf"),
                "--lambda-count": _num(-1, 4), "--free-cap": _num(-1, 4),
                "--weight": _words("product", "minpair", "full", "unit", "x"),
            })
        elif cmd == "partial-sum":
            required.append(("--n", _ints(-3, 5, max_size=4)))
            optional["--fix"] = _ints(-1, 9, min_size=0, max_size=4)
        else:
            required += [("--free-axes", _ints(-1, 4, 2, 2)), ("--n", _ints(-2, 5, max_size=4))]
    chosen = draw(st.lists(st.sampled_from(sorted(optional)), max_size=3, unique=True))
    flags = required + [(flag, optional[flag]) for flag in chosen]
    argv = cmd.split() + [a for flag, values in flags for a in [flag, *draw(values)]]
    doc = draw(_DOC_TEXT) if "{doc}" in argv else None
    return argv, config, doc, draw(st.booleans())


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    assert main(["gen", "--N", "3", "--B", "2", "--seed", "1", "--out", str(d / "f.json")]) == 0
    assert main(["gen", "--N", "4", "--B", "2", "--seed", "1", "--out", str(d / "f4.json")]) == 0
    return d


@pytest.mark.parametrize(
    "cmd",
    ["gen", "verify abel", "verify identities", "converge", "maximal-suite", "maximal",
     "partial-sum", "decompose", "report"],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exit_code_contract(cmd, data, fuzz_dir):
    # 0 passed, 1 an assertion failed, 2 an input error in one line; never a
    # traceback, and no --out file on an input error
    import contextlib
    import io

    argv, config, doc, with_out = data.draw(_argv(cmd))
    files = {"{spec}": fuzz_dir / "f.json", "{spec4}": fuzz_dir / "f4.json",
             "{doc}": fuzz_dir / "doc.json"}
    if doc is not None:
        files["{doc}"].write_text(doc)
    argv = [str(files.get(a, a)) for a in argv]
    out = fuzz_dir / "out.json"
    out.unlink(missing_ok=True)
    if config is not None:
        (fuzz_dir / "c.cfg").write_text(config)
        argv += ["--config", str(fuzz_dir / "c.cfg")]
    if with_out:
        argv += ["--out", str(out)]
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), (argv, config, rc)
    if rc == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
        assert not out.exists()
    elif argv[0] == "converge":
        # each row is a minimum index level, and index components are >= 0
        report = load_json(out) if with_out else json.loads(stdout.getvalue())
        assert all(row["level"] >= 0 for row in report["results"]["cases"]), (argv, config)
