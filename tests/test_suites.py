import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    _decay_profile,
    coefficient_tail,
    config_from_mapping,
    emit_report,
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
    assert s.coeffs[5, 2, 7] == 1.0  # nu = (1, -2, 3) on the bandwidth-4 box
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


def test_gen_rejects_negative_bandwidth_and_no_axes():
    with pytest.raises(LacsumError):
        gen_test_function("random_decay", bandwidth=-1, dimension=2)
    with pytest.raises(LacsumError):
        gen_test_function("random_decay", bandwidth=(3, -1))
    with pytest.raises(LacsumError):
        gen_test_function("random_decay", bandwidth=3, dimension=0)


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


def test_identity_summary_holds_each_check_to_its_bound():
    # the Abel check is held to tolerance x its rounding scale, so a passing
    # report's raw maximum can sit above the tolerance (1.04e-10 against
    # 1e-10 here); worst_ratio, the largest deviation over its own bound, is
    # what the verdict reads
    cfg = ExperimentConfig(seed=1, **{**SMALL_IDENTITY, "abel_trials": 3, "abel_max_n": 100})
    rep = run_identity_suite(cfg)
    tol, checks = rep.summary["tolerance"], rep.results["checks"].values()
    assert rep.passed and rep.summary["max_deviation"] > tol
    assert rep.summary["worst_ratio"] == max(c["max_deviation"] / (tol * c.get("scale", 1.0)) for c in checks) <= 1
    perturbed = run_identity_suite(dataclasses.replace(cfg, perturb=True))
    assert not perturbed.passed and perturbed.summary["worst_ratio"] > 1


@pytest.mark.parametrize("tol", [0.0, -1e-10])
def test_identity_tolerance_must_be_positive(tol):
    # the verdict divides each deviation by tolerance x scale
    with pytest.raises(LacsumError, match="identity_tolerance must be > 0"):
        ExperimentConfig(identity_tolerance=tol)


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


@settings(max_examples=40, deadline=None)
@given(
    n=st.tuples(*[st.integers(0, 4)] * 3),
    seed=st.integers(0, 2**16),
    zeros=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_shell_oracle_box_slice_is_bit_identical(n, seed, zeros):
    # restricting the four-operand einsum to the box's coefficients and
    # axis-matrix columns adds no rounding: the zero-padded full box adds only
    # exact zeros to the same sums in the same order. The identity suite's
    # oracle synthesizes the box's coefficients directly, one axis at a time,
    # a different order that must agree to rounding
    from lacsum.spectral import _axis_matrix, synthesize

    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((9, 9, 9)) + 1j * rng.standard_normal((9, 9, 9))
    coeffs[rng.random((9, 9, 9)) < zeros] = 0.0
    grid = TorusGrid((8, 8, 8))
    mats = [_axis_matrix(4, grid.axis_coords(p)) for p in range(3)]
    sl = tuple(slice(4 - v, 4 + v + 1) for v in n)
    masked = np.zeros_like(coeffs)
    masked[sl] = coeffs[sl]
    padded = np.einsum("abc,xa,yb,zc->xyz", masked, *mats)
    sliced = np.einsum("abc,xa,yb,zc->xyz", coeffs[sl], *(m[:, k] for m, k in zip(mats, sl)))
    assert sliced.tobytes() == padded.tobytes()
    per_axis = synthesize(Spectrum(n, coeffs[sl]), grid, method="direct").values
    assert np.max(np.abs(per_axis - padded)) <= 1e-12


def test_identity_suite_catches_a_shell_short_engine(monkeypatch):
    # a tensor whose box lookup stops one shell short on its first nonzero
    # axis must fail the shell oracle, and so the suite. Only the oracle's
    # tensors are short: a decomposition's tensor holds no shell below its
    # box on the non-free axis, so a short lookup there would raise instead
    import lacsum.suites
    from lacsum.spectral import ShellTensor

    class ShortTensor(ShellTensor):
        def query(self, n):
            n = list(n)
            for p, v in enumerate(n):
                if v > 0:
                    n[p] -= 1
                    break
            return super().query(n)

    monkeypatch.setattr(lacsum.suites, "ShellTensor", ShortTensor)
    rep = run_identity_suite(ExperimentConfig(seed=3, **SMALL_IDENTITY))
    assert rep.results["checks"]["shell_vs_direct"]["max_deviation"] > rep.summary["tolerance"]
    assert not rep.passed


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
    f = synthesize(s, grid).values
    fam = make_lacunary(2.0, 3)  # terms 1, 2, 4; 4 clamps onto the bandwidth 3
    # one free axis (the phantom second stream axis) and two, with and
    # without terms skipped below min_term
    for jk in ((1,), (1, 2)):
        sample = SampleJk(3, jk)
        space = JkIndexSpace(sample, (fam,) * len(jk), (3,) * (3 - len(jk)))
        lac, free = sample.lacunary_positions, sample.free_positions
        for min_term in (0, 2):
            originals, table = sup_error_table(s, grid, space, min_term=min_term)
            assert originals == ((1, 2, 4) if min_term == 0 else (2, 4),) * len(jk)
            # the free axes start at min_term
            assert table.shape == tuple(len(o) for o in originals) + (4 - min_term,) * len(free)
            worst = 0.0
            for pos in np.ndindex(*table.shape):
                n = [0, 0, 0]
                for p, terms, i in zip(lac, originals, pos):
                    n[p] = terms[i]
                for p, i in zip(free, pos[len(lac):]):
                    n[p] = min_term + i
                err = np.max(np.abs(partial_sum(s, n, grid).values - f))
                worst = max(worst, abs(table[pos] - err))
            assert worst < 1e-10, (jk, min_term, worst)


@settings(max_examples=40, deadline=None)
@given(
    n_free=st.integers(min_value=0, max_value=3),
    k=st.integers(min_value=0, max_value=2),
    min_term=st.sampled_from([0, 1, 2]),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_sup_error_table_property(n_free, k, min_term, data, seed):
    # every returned entry against a direct partial sum minus the synthesized
    # function, one index at a time; a third free axis is cut at its cap
    from lacsum import partial_sum, synthesize

    n = n_free + k
    assume(1 <= n <= 4)
    axes = data.draw(st.permutations(range(1, n + 1)))
    sample = SampleJk(n, tuple(sorted(axes[:k])))
    q = data.draw(st.sampled_from([1.5, 2.0, 3.0]))
    families = tuple(make_lacunary(q, data.draw(st.integers(1, 4))) for _ in range(k))
    bandwidth = data.draw(st.tuples(*[st.integers(min_value=0, max_value=4)] * n))
    # the streamed free axes ignore their caps; a cut one stops at min(cap, B)
    caps = data.draw(st.tuples(*[st.integers(min_value=0, max_value=5)] * n_free))
    space = JkIndexSpace(sample, families, caps)
    rng = np.random.default_rng(seed)
    shape = tuple(2 * b + 1 for b in bandwidth)
    s = Spectrum(bandwidth, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    grid = TorusGrid((8,) * n)
    lac, free = sample.lacunary_positions, sample.free_positions
    # terms from min_term on; past the bandwidth only the first one is kept
    expected_terms = []
    for p, fam in zip(lac, families):
        kept = [t for t in fam.terms if t >= min_term]
        b = bandwidth[p]
        expected_terms.append(tuple(t for i, t in enumerate(kept) if i == 0 or kept[i - 1] < b))
    for p, cap in zip(free[2:], caps[2:]):
        b = bandwidth[p]
        expected_terms.append(tuple(range(min(min_term, b), min(cap, b) + 1)))
    if not all(expected_terms):
        with pytest.raises(LacsumError):
            sup_error_table(s, grid, space, min_term=min_term)
        return
    originals, table = sup_error_table(s, grid, space, min_term=min_term)
    assert originals == tuple(expected_terms)
    # each streamed free axis starts at min_term, clamped to its bandwidth
    start = {p: min(min_term, bandwidth[p]) for p in free[:2]}
    assert table.shape == tuple(map(len, originals)) + tuple(
        bandwidth[p] + 1 - start[p] for p in free[:2]
    )
    f = synthesize(s, grid).values
    cut = lac + free[2:]
    for pos in np.ndindex(*table.shape):
        idx = [0] * n
        for p, terms, i in zip(cut, originals, pos):
            idx[p] = terms[i]
        for p, i in zip(free[:2], pos[len(cut):]):
            idx[p] = start[p] + i
        err = np.max(np.abs(partial_sum(s, idx, grid).values - f))
        assert abs(table[pos] - err) < 1e-10, (idx, table[pos], err)


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


def test_maximal_suite_zero_trials(tmp_path):
    cfg = ExperimentConfig(suite="maximal", seed=7, **{**SMALL_MAXIMAL, "trials": 0})
    rep = run_maximal_suite(cfg)
    assert rep.passed
    assert rep.summary["no_cases"]
    assert rep.rows == []
    # no rows and so no header: the CSV is one empty line
    assert emit_report(rep, tmp_path / "z.json", fmt="csv")[1].read_text() == "\n"
    json.loads(dumps(rep.to_dict()))  # schema still valid
    with pytest.raises(LacsumError, match="trials"):
        ExperimentConfig(suite="maximal", trials=-1)
    with pytest.raises(LacsumError, match="alpha_points"):
        ExperimentConfig(suite="maximal", alpha_points=0)
    with pytest.raises(LacsumError, match="two levels"):
        run_maximal_suite(dataclasses.replace(cfg, cap_schedule=(8,)))


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


def test_suite_trials_are_independent_and_picklable():
    # each trial alone, in reverse order and from pickled arguments, gives
    # that trial's rows of the report
    import pickle

    from lacsum.suites import _convergence_trial, _maximal_trial, _suite_layout

    for suite, small, run_suite, trial_fn in (
        ("convergence", SMALL_CONVERGENCE, run_convergence_suite, _convergence_trial),
        ("maximal", SMALL_MAXIMAL, run_maximal_suite, _maximal_trial),
    ):
        rep = run_suite(ExperimentConfig(suite=suite, seed=4, **{**small, "trials": 3}))
        echo = dict(rep.config)
        assert echo.pop("suite") == suite
        cfg = config_from_mapping(echo, suite)  # the config the suite ran, defaults filled
        sample, bw, grid, families = _suite_layout(cfg)
        if trial_fn is _convergence_trial:
            levels, caps = cfg.levels, cfg.free_cap
        else:
            levels, caps = cfg.cap_schedule, cfg.cap_schedule[-1]
        space = JkIndexSpace(sample, families, (caps,) * len(sample.free_positions))
        for trial in reversed(range(3)):
            args = pickle.loads(pickle.dumps((cfg, trial, bw, grid, space, levels)))
            assert trial_fn(*args) == [r for r in rep.rows if r["trial"] == trial]


# ---------------------------------------------------------------------------
# config plumbing


def test_config_from_mapping_coercion():
    cfg = config_from_mapping(
        {"trials": "4", "cap_schedule": "2, 4, 8", "q": "1.5", "normalize": "false"}, "maximal"
    )
    assert cfg.suite == "maximal"
    assert cfg.trials == 4
    assert cfg.cap_schedule == (2, 4, 8)
    assert cfg.q == 1.5
    assert cfg.normalize is False


def test_config_coercion_follows_declared_types():
    cfg = config_from_mapping(
        {"jk": "1", "cap_schedule": "8", "mode": "2", "bandwidth": "16", "grid": "16, 20, 20",
         "q": "2", "dimension": None}, "maximal"
    )
    assert cfg.jk == (1,) and cfg.cap_schedule == (8,) and cfg.mode == (2,)
    assert cfg.bandwidth == 16 and cfg.grid == (16, 20, 20)
    assert isinstance(cfg.q, float) and cfg.dimension is None
    assert config_from_mapping({"levels": 4}, "convergence").levels == (4,)
    assert config_from_mapping({"block_ratios": "2"}, "identity").block_ratios == (2.0,)
    for bad in ({"trials": "many"}, {"normalize": "1"}, {"jk": "1.5"}, {"q": "1, 2"},
                {"q": "nan"}, {"beta": "inf"}, {"tail_slack": float("nan")}):
        with pytest.raises(LacsumError, match="expects"):
            config_from_mapping(bad, "convergence")


def test_config_rejects_unknown_keys():
    with pytest.raises(LacsumError):
        config_from_mapping({"nope": "1"}, "identity")


# the config fields each command reads, as the code below each runner reads them
_READS = {
    "identity": "seed identity_tolerance abel_trials abel_max_n telescope_cases decompose_cases "
    "shell_spectra block_ratios block_bandwidth vanishing_box perturb",
    "convergence": "dimension jk q lambda_count bandwidth grid seed family beta eps mode normalize "
    "trials levels free_cap tail_slack",
    "maximal": "dimension jk q lambda_count bandwidth grid seed family beta eps mode normalize "
    "trials cap_schedule weight alpha_points stabilization_threshold",
    "gen": "seed family beta eps mode normalize dimension jk bandwidth",
}


@pytest.mark.parametrize("command", sorted(_READS))
def test_each_command_takes_exactly_the_config_keys_it_reads(command):
    # a key the command reads is taken, any other (suite itself included) is
    # an input error; 53 keys in all, against 31 per command before
    reads = _READS[command].split()
    for field in dataclasses.fields(ExperimentConfig):
        if field.name in reads:
            assert getattr(config_from_mapping({field.name: field.default}, command),
                           field.name) == field.default
        else:
            with pytest.raises(LacsumError, match=f"{command} does not read config key '{field.name}'"):
                config_from_mapping({field.name: field.default}, command)
    assert sum(len(r.split()) for r in _READS.values()) == 53


@pytest.mark.parametrize("suite, run_suite, small", [
    ("identity", run_identity_suite, SMALL_IDENTITY),
    ("convergence", run_convergence_suite, {**SMALL_CONVERGENCE, "trials": 1}),
    ("maximal", run_maximal_suite, {**SMALL_MAXIMAL, "trials": 1}),
])
def test_suite_echo_is_the_fields_it_read(suite, run_suite, small):
    # unread fields set through the API leave the report as it was and stay
    # out of its echo, which holds suite and the fields read, defaults filled
    unread = {"identity": dict(trials=5, cap_schedule=(2, 4), bandwidth=3),
              "convergence": dict(cap_schedule=(2, 4), weight="unit", stabilization_threshold=0.5),
              "maximal": dict(free_cap=3, levels=(1, 2), tail_slack=5.0)}[suite]
    rep = run_suite(ExperimentConfig(suite=suite, seed=3, **small))
    odd = run_suite(ExperimentConfig(suite=suite, seed=3, **small, **unread))
    assert dumps(odd.to_dict()) == dumps(rep.to_dict())
    assert set(rep.config) == {"suite", *_READS[suite].split()}
    assert None not in rep.config.values()


@pytest.mark.parametrize("suite, run_suite", [
    ("convergence", run_convergence_suite),
    ("maximal", run_maximal_suite),
])
def test_suite_echo_names_the_suite_that_ran(suite, run_suite):
    # a library caller may leave the config's own suite at its default
    rep = run_suite(ExperimentConfig(trials=0))
    assert rep.suite == rep.config["suite"] == suite


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\ntrials = 3\nlevels = 2,4\n\nseed = 11  # inline\n")
    mapping = parse_config_file(p)
    cfg = config_from_mapping(mapping, "convergence")
    assert cfg.trials == 3 and cfg.levels == (2, 4) and cfg.seed == 11


def test_parse_config_file_bad_line(tmp_path):
    p = tmp_path / "run.cfg"
    for text, message in [
        ("just words\n", "expected 'key = value'"),
        # the echo could show only one of the two values
        ("trials = 2\n# again\n trials = 3\n", ":3: key 'trials' is already set on line 1"),
    ]:
        p.write_text(text)
        with pytest.raises(LacsumError, match=message):
            parse_config_file(p)


@pytest.mark.parametrize("beta", [1.0, 2.0, 1.3])
def test_decay_profile_is_libm_pow_per_axis(beta):
    # numpy's AVX-512 pow rounds (|nu| + 1)^-beta differently from libm's
    # from 31^-2 on, and at small values for a non-integer beta
    bandwidth = (40, 2, 40)
    expected = np.ones(tuple(2 * b + 1 for b in bandwidth))
    for p, b in enumerate(bandwidth):
        shape = [1] * len(bandwidth)
        shape[p] = 2 * b + 1
        line = np.array([math.pow(abs(k) + 1.0, -beta) for k in range(-b, b + 1)])
        expected = expected * line.reshape(shape)
    assert np.array_equal(_decay_profile(bandwidth, beta), expected)
