import json

import numpy as np
import pytest

from lacsum import (
    LacsumError,
    SampleJk,
    gen_test_function,
    product_weight,
    run_convergence_suite,
    run_identity_suite,
    run_maximal_suite,
    weighted_energy,
)
from lacsum.suites import (
    ExperimentConfig,
    coefficient_tail,
    config_from_mapping,
    parse_config_file,
    sup_error_table,
)
from lacsum.serialize import dumps
from lacsum import JkIndexSpace, Spectrum, TorusGrid, make_lacunary

SMALL_IDENTITY = dict(
    abel_trials=10, telescope_cases=5, decompose_cases=5, shell_spectra=2, vanishing_box=16
)


def test_gen_single_mode():
    s = gen_test_function("single_mode", bandwidth=4, mode=(1, -2, 3))
    assert s.coefficient((1, -2, 3)) == 1.0
    assert s.energy() == pytest.approx(1.0)


def test_gen_random_decay_deterministic():
    a = gen_test_function("random_decay", bandwidth=3, dimension=2, seed=42, beta=2.0)
    b = gen_test_function("random_decay", bandwidth=3, dimension=2, seed=42, beta=2.0)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = gen_test_function("random_decay", bandwidth=3, dimension=2, seed=43, beta=2.0)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_gen_random_decay_beta_guard():
    with pytest.raises(LacsumError):
        gen_test_function("random_decay", bandwidth=3, dimension=2, beta=0.4)


def test_gen_normalized_energy():
    s = gen_test_function("product_1d", bandwidth=3, dimension=2, seed=1, beta=1.0)
    assert s.energy() == pytest.approx(1.0, rel=1e-12)


def test_gen_weyl_borderline_weighted_energy_finite():
    sample = SampleJk(3, (1,))
    s = gen_test_function(
        "weyl_borderline", bandwidth=6, sample=sample, seed=2, eps=0.5, normalize=False
    )
    sigma = weighted_energy(s, product_weight(sample))
    assert np.isfinite(sigma) and sigma > 0
    assert np.isfinite(s.energy())


def test_gen_unknown_family():
    with pytest.raises(LacsumError):
        gen_test_function("nope", bandwidth=2)


# ---------------------------------------------------------------------------
# identity suite


def test_identity_suite_passes():
    rep = run_identity_suite(ExperimentConfig(seed=5, **SMALL_IDENTITY))
    assert rep.passed
    assert rep.summary["max_deviation"] <= 1e-10
    assert set(rep.results["checks"]) >= {"abel", "telescope", "decompose", "shell_vs_direct"}
    doc = rep.to_dict()
    assert doc["tool_version"] and doc["schema_version"]
    assert doc["config"]["seed"] == 5  # config echo suffices to reproduce


def test_identity_suite_perturbation_fails():
    rep = run_identity_suite(ExperimentConfig(seed=5, perturb=True, **SMALL_IDENTITY))
    assert not rep.passed
    assert rep.results["checks"]["abel"]["max_deviation"] >= 1e-6


def test_identity_suite_no_cases_marker():
    cfg = ExperimentConfig(
        seed=5,
        abel_trials=0,
        telescope_cases=0,
        decompose_cases=0,
        shell_spectra=0,
        block_ratios=(),
        vanishing_box=1,
    )
    rep = run_identity_suite(cfg)
    assert rep.passed
    # the vanishing check always contributes cases; markers stay consistent
    assert rep.summary["no_cases"] == (
        sum(c["cases"] for c in rep.results["checks"].values()) == 0
    )


# ---------------------------------------------------------------------------
# convergence suite


SMALL_CONVERGENCE = dict(
    dimension=3,
    jk=(1,),
    lambda_count=3,
    bandwidth=(4, 5, 5),
    grid=(16, 20, 20),
    levels=(2, 4),
    free_cap=5,
    trials=2,
    beta=3.0,
)


def test_convergence_suite_small():
    rep = run_convergence_suite(ExperimentConfig(suite="convergence", seed=1, **SMALL_CONVERGENCE))
    assert rep.passed
    for row in rep.rows:
        assert row["sup_error"] <= row["tail_bound"] + 1e-12
        assert row["nonincreasing"]


def test_convergence_polynomial_exhaustion():
    # every index at the level covers the full box, so the error vanishes
    cfg = ExperimentConfig(
        suite="convergence",
        seed=3,
        dimension=3,
        jk=(1,),
        lambda_count=2,
        bandwidth=(2, 2, 2),
        grid=(8, 8, 8),
        levels=(2,),
        free_cap=2,
        trials=1,
        beta=3.0,
    )
    rep = run_convergence_suite(cfg)
    assert rep.passed
    assert rep.rows[-1]["sup_error"] < 1e-12
    assert rep.rows[-1]["tail_bound"] == 0.0


def test_convergence_grid_rule_enforced():
    cfg = ExperimentConfig(suite="convergence", grid=8, bandwidth=4, **{
        k: v for k, v in SMALL_CONVERGENCE.items() if k not in ("grid", "bandwidth")
    })
    with pytest.raises(LacsumError):
        run_convergence_suite(cfg)


def test_sup_error_table_matches_direct():
    from lacsum import partial_sum, synthesize

    rng = np.random.default_rng(0)
    bw = (3, 3, 3)
    s = Spectrum(bw, rng.standard_normal((7, 7, 7)) + 1j * rng.standard_normal((7, 7, 7)))
    grid = TorusGrid((12, 12, 12))
    sample = SampleJk(3, (1,))
    space = JkIndexSpace(sample, (make_lacunary(2.0, 2),), (3, 3))
    originals, table = sup_error_table(s, grid, space)
    f = synthesize(s, grid).values
    worst = 0.0
    for ci, cut in enumerate(originals[0]):
        for ma in range(4):
            for mb in range(4):
                err = np.max(np.abs(partial_sum(s, (cut, ma, mb), grid).values - f))
                worst = max(worst, abs(table[ci, ma, mb] - err))
    assert worst < 1e-10


def test_coefficient_tail():
    s = Spectrum((2,), np.asarray([1.0, 2.0, 3.0, 4.0, 5.0], dtype=complex))
    assert coefficient_tail(s, 0) == pytest.approx(1 + 2 + 4 + 5)
    assert coefficient_tail(s, 1) == pytest.approx(1 + 5)
    assert coefficient_tail(s, 2) == 0.0


# ---------------------------------------------------------------------------
# maximal suite


SMALL_MAXIMAL = dict(
    dimension=3,
    jk=(1,),
    lambda_count=3,
    bandwidth=(4, 6, 6),
    grid=(16, 24, 24),
    cap_schedule=(3, 5, 6),
    trials=2,
)


def test_maximal_suite_small():
    rep = run_maximal_suite(ExperimentConfig(suite="maximal", seed=7, **SMALL_MAXIMAL))
    assert rep.passed
    assert rep.summary["monotone_all"]
    assert len(rep.rows) == 2 * 3  # trials x cap levels
    assert rep.summary["median_stabilization_quotient"] >= 1.0


def test_maximal_suite_zero_trials():
    cfg = ExperimentConfig(suite="maximal", seed=7, **{**SMALL_MAXIMAL, "trials": 0})
    rep = run_maximal_suite(cfg)
    assert rep.passed
    assert rep.summary["no_cases"]
    assert rep.rows == []
    json.loads(dumps(rep.to_dict()))  # schema still valid


def test_emit_report_round_trip(tmp_path):
    from lacsum.serialize import jsonify, load_json
    from lacsum.suites import emit_report

    rep = run_identity_suite(ExperimentConfig(seed=2, **SMALL_IDENTITY))
    written = emit_report(rep, tmp_path / "r.json", fmt="csv")
    assert [p.name for p in written] == ["r.json", "r.csv"]
    assert load_json(written[0]) == jsonify(rep.to_dict())
    lines = written[1].read_text().splitlines()
    assert len(lines) == 1 + len(rep.rows)
    with pytest.raises(LacsumError):
        emit_report(rep, tmp_path / "x.json", fmt="xml")


def test_maximal_suite_deterministic_bytes():
    cfg = ExperimentConfig(suite="maximal", seed=9, **SMALL_MAXIMAL)
    a = dumps(run_maximal_suite(cfg).to_dict())
    b = dumps(run_maximal_suite(cfg).to_dict())
    assert a == b


# ---------------------------------------------------------------------------
# config plumbing


def test_config_from_mapping_coercion():
    cfg = config_from_mapping(
        {"suite": "maximal", "trials": "4", "cap_schedule": "2, 4, 8", "q": "1.5", "normalize": "false"}
    )
    assert cfg.trials == 4
    assert cfg.cap_schedule == (2, 4, 8)
    assert cfg.q == 1.5
    assert cfg.normalize is False


def test_config_coercion_follows_declared_types():
    cfg = config_from_mapping(
        {"jk": "1", "cap_schedule": "8", "levels": 4, "mode": "2", "block_ratios": "2",
         "bandwidth": "16", "grid": "16, 20, 20", "q": "2", "dimension": None}
    )
    assert cfg.jk == (1,) and cfg.cap_schedule == (8,) and cfg.levels == (4,)
    assert cfg.mode == (2,) and cfg.block_ratios == (2.0,)
    assert cfg.bandwidth == 16 and cfg.grid == (16, 20, 20)
    assert isinstance(cfg.q, float) and cfg.dimension is None
    for bad in ({"trials": "many"}, {"normalize": "1"}, {"jk": "1.5"}, {"q": "1, 2"}):
        with pytest.raises(LacsumError, match="expects"):
            config_from_mapping(bad)


def test_config_rejects_unknown_keys():
    with pytest.raises(LacsumError):
        config_from_mapping({"nope": "1"})


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\ntrials = 3\nlevels = 2,4\n\nseed = 11  # inline\n")
    mapping = parse_config_file(p)
    cfg = config_from_mapping(mapping)
    assert cfg.trials == 3 and cfg.levels == (2, 4) and cfg.seed == 11


def test_parse_config_file_bad_line(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("just words\n")
    with pytest.raises(LacsumError):
        parse_config_file(p)
